package listset

// One testing.B benchmark per evaluation exhibit of the paper, plus the
// ablations DESIGN.md calls out. Each figure's full sweep (all thread
// counts, paper durations) lives in cmd/figures; these benches are the
// `go test -bench` entry points that regenerate each exhibit's series
// at testing.B granularity:
//
//	BenchmarkFigure1        — Lazy vs VBL, 20% updates, ~25-node list
//	BenchmarkFigure4        — the 3×4 throughput grid, all lists
//	BenchmarkHarrisVariants — §4 RTTI discussion: AMR vs marker reads
//	BenchmarkAblation*      — lock substrate, restart policy, validation
//
// Results land in ns/op (inverse throughput); EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"fmt"
	"sync"
	"testing"

	"listset/internal/workload"
)

// benchCell drives b.N operations of the given workload against a fresh
// pre-populated set from `threads` goroutines.
func benchCell(b *testing.B, im Impl, threads int, wl workload.Config) {
	b.Helper()
	b.ReportAllocs()
	s := im.New()
	workload.Prepopulate(wl, 1, s.Insert)
	perG := b.N/threads + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			gen := workload.NewGenerator(wl, uint64(id)*0x9E37+11)
			for i := 0; i < perG; i++ {
				op, k := gen.Next()
				switch op {
				case workload.Contains:
					s.Contains(k)
				case workload.Insert:
					s.Insert(k)
				case workload.Remove:
					s.Remove(k)
				}
			}
		}(t)
	}
	wg.Wait()
}

func mustLookup(tb testing.TB, name string) Impl {
	tb.Helper()
	im, err := Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	return im
}

// BenchmarkFigure1 regenerates Figure 1: VBL vs Lazy on a ~25-node list
// (key range 50) under 20% updates across a goroutine sweep. The paper's
// shape: Lazy collapses under contention, VBL keeps scaling (~1.6x at
// 72 threads on the 72-core Intel box).
func BenchmarkFigure1(b *testing.B) {
	wl := workload.Config{UpdatePercent: 20, Range: 50}
	for _, name := range []string{"vbl", "lazy"} {
		im := mustLookup(b, name)
		for _, threads := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("impl=%s/threads=%d", name, threads), func(b *testing.B) {
				benchCell(b, im, threads, wl)
			})
		}
	}
}

// BenchmarkFigure4 regenerates the Figure 4 grid: update ratios
// {0,20,100}% × key ranges {50, 200, 2000, 20000} for VBL, Lazy and the
// two Harris-Michael variants. (Thread counts are kept to {1, 4} here;
// cmd/figures sweeps the full axis.)
func BenchmarkFigure4(b *testing.B) {
	impls := []string{"vbl", "lazy", "harris", "harris-amr"}
	for _, update := range []int{0, 20, 100} {
		for _, keyRange := range []int64{50, 200, 2000, 20000} {
			wl := workload.Config{UpdatePercent: update, Range: keyRange}
			for _, name := range impls {
				im := mustLookup(b, name)
				for _, threads := range []int{1, 4} {
					b.Run(fmt.Sprintf("u=%d/r=%d/impl=%s/threads=%d", update, keyRange, name, threads), func(b *testing.B) {
						benchCell(b, im, threads, wl)
					})
				}
			}
		}
	}
}

// BenchmarkHarrisVariants isolates the §4 "Comparison against
// Harris-Michael" observation: on read-dominated workloads the AMR
// variant pays one extra indirection per traversal hop, which the
// RTTI-style marker variant eliminates.
func BenchmarkHarrisVariants(b *testing.B) {
	for _, keyRange := range []int64{200, 20000} {
		wl := workload.Config{UpdatePercent: 0, Range: keyRange}
		for _, name := range []string{"harris", "harris-amr"} {
			im := mustLookup(b, name)
			b.Run(fmt.Sprintf("r=%d/impl=%s", keyRange, name), func(b *testing.B) {
				benchCell(b, im, 2, wl)
			})
		}
	}
}

// BenchmarkAblationLock prices the lock substrate: the paper's CAS spin
// try-lock vs sync.Mutex, same algorithm.
func BenchmarkAblationLock(b *testing.B) {
	wl := workload.Config{UpdatePercent: 100, Range: 200}
	for _, name := range []string{"vbl", "vbl-mutex"} {
		im := mustLookup(b, name)
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("impl=%s/threads=%d", name, threads), func(b *testing.B) {
				benchCell(b, im, threads, wl)
			})
		}
	}
}

// BenchmarkAblationRestart prices the restart-from-prev locality
// optimization against restarting from head, on a long list where the
// difference is the re-traversed prefix.
func BenchmarkAblationRestart(b *testing.B) {
	wl := workload.Config{UpdatePercent: 100, Range: 2000}
	for _, name := range []string{"vbl", "vbl-headrestart"} {
		im := mustLookup(b, name)
		for _, threads := range []int{4, 8} {
			b.Run(fmt.Sprintf("impl=%s/threads=%d", name, threads), func(b *testing.B) {
				benchCell(b, im, threads, wl)
			})
		}
	}
}

// BenchmarkAblationValidation prices validate-then-lock against
// lock-then-validate on a small hot list where most updates fail and
// the pre-validation's early exit matters most.
func BenchmarkAblationValidation(b *testing.B) {
	wl := workload.Config{UpdatePercent: 100, Range: 16}
	for _, name := range []string{"vbl", "vbl-noprevalidate", "lazy"} {
		im := mustLookup(b, name)
		for _, threads := range []int{4, 8} {
			b.Run(fmt.Sprintf("impl=%s/threads=%d", name, threads), func(b *testing.B) {
				benchCell(b, im, threads, wl)
			})
		}
	}
}

// BenchmarkSkipLists evaluates the paper's §5 conjecture: the
// value-aware discipline carried into a skip list (vbskip) against the
// lock-all-preds LazySkipList, with the flat VBL as the O(n) yardstick.
// At range 2*10^4 the index turns list traversals from thousands of
// hops into tens.
func BenchmarkSkipLists(b *testing.B) {
	for _, keyRange := range []int64{2000, 20000, 200000} {
		for _, update := range []int{0, 20} {
			wl := workload.Config{UpdatePercent: update, Range: keyRange}
			impls := []string{"vbskip", "lazyskip"}
			if keyRange <= 20000 {
				impls = append(impls, "vbl") // the flat list for scale
			}
			for _, name := range impls {
				im := mustLookup(b, name)
				for _, threads := range []int{1, 4} {
					b.Run(fmt.Sprintf("u=%d/r=%d/impl=%s/threads=%d", update, keyRange, name, threads), func(b *testing.B) {
						benchCell(b, im, threads, wl)
					})
				}
			}
		}
	}
}

// BenchmarkAlloc prices the arena (internal/mem): GC-backed vs
// arena-backed node lifetimes for VBL and Lazy under 100% updates —
// every operation is an insert or remove, so the GC mode allocates at
// the workload's effective-update rate while the arena recycles. The
// headline column is allocs/op (b.ReportAllocs); EXPERIMENTS.md §
// records the measured series.
func BenchmarkAlloc(b *testing.B) {
	for _, keyRange := range []int64{200, 20000} {
		wl := workload.Config{UpdatePercent: 100, Range: keyRange}
		for _, name := range []string{"vbl", "lazy"} {
			im := mustLookup(b, name)
			for _, mode := range []struct {
				tag string
				new func() Set
			}{
				{"gc", im.New},
				{"arena", im.NewArena},
			} {
				for _, threads := range []int{1, 2} {
					b.Run(fmt.Sprintf("r=%d/impl=%s/mem=%s/threads=%d", keyRange, name, mode.tag, threads), func(b *testing.B) {
						b.ReportAllocs()
						s := mode.new()
						workload.Prepopulate(wl, 1, s.Insert)
						perG := b.N/threads + 1
						b.ResetTimer()
						var wg sync.WaitGroup
						for t := 0; t < threads; t++ {
							wg.Add(1)
							go func(id int) {
								defer wg.Done()
								gen := workload.NewGenerator(wl, uint64(id)*0x9E37+11)
								for i := 0; i < perG; i++ {
									op, k := gen.Next()
									switch op {
									case workload.Insert:
										s.Insert(k)
									case workload.Remove:
										s.Remove(k)
									}
								}
							}(t)
						}
						wg.Wait()
					})
				}
			}
		}
	}
}

// BenchmarkOperations is the per-operation microbenchmark: the cost of
// each op in isolation on a mid-size list, for every implementation.
func BenchmarkOperations(b *testing.B) {
	const keyRange = 1000
	for _, im := range Implementations() {
		if !im.ThreadSafe {
			continue
		}
		im := im
		b.Run("impl="+im.Name+"/op=contains-hit", func(b *testing.B) {
			b.ReportAllocs()
			s := im.New()
			for k := int64(0); k < keyRange; k += 2 {
				s.Insert(k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Contains(int64(i*2) % keyRange)
			}
		})
		b.Run("impl="+im.Name+"/op=contains-miss", func(b *testing.B) {
			b.ReportAllocs()
			s := im.New()
			for k := int64(0); k < keyRange; k += 2 {
				s.Insert(k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Contains(int64(i*2+1) % keyRange)
			}
		})
		b.Run("impl="+im.Name+"/op=insert-remove", func(b *testing.B) {
			b.ReportAllocs()
			s := im.New()
			for k := int64(0); k < keyRange; k += 2 {
				s.Insert(k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i*2+1) % keyRange
				s.Insert(k)
				s.Remove(k)
			}
		})
	}
}
