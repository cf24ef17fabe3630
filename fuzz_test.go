package listset

import (
	"strings"
	"testing"

	"listset/internal/mem"
)

// Fuzz targets interpret a byte string as a program of set operations
// and cross-check every implementation against a map oracle (sequential
// fuzzing) and against each other. They run over the seed corpus in
// ordinary `go test` runs and explore further with `go test -fuzz`.

// decodeOp maps two bytes to (operation, key).
func decodeOp(op, key byte) (kind int, k int64) {
	return int(op % 3), int64(key % 32)
}

func seedCorpus(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 5, 2, 5, 1, 5, 1, 5})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 2, 2, 1, 2, 3})
	// Insert/remove churn on one key.
	churn := make([]byte, 0, 64)
	for i := 0; i < 16; i++ {
		churn = append(churn, 0, 7, 1, 7)
	}
	f.Add(churn)
	// Ascending then descending inserts.
	var sweep []byte
	for i := byte(0); i < 30; i++ {
		sweep = append(sweep, 0, i)
	}
	for i := byte(30); i > 0; i-- {
		sweep = append(sweep, 1, i-1)
	}
	f.Add(sweep)
}

// FuzzSequentialVsOracle runs the program on every form of every
// implementation (the sharded forms split the fuzz key domain [0, 32)
// across 4 shards) and requires the result stream to match the map
// oracle exactly.
func FuzzSequentialVsOracle(f *testing.F) {
	seedCorpus(f)
	impls := allForms(0, 32)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip()
		}
		for _, im := range impls {
			s := im.New()
			oracle := map[int64]bool{}
			for i := 0; i+1 < len(prog); i += 2 {
				kind, k := decodeOp(prog[i], prog[i+1])
				switch kind {
				case 0:
					want := !oracle[k]
					if got := s.Insert(k); got != want {
						t.Fatalf("%s: step %d Insert(%d) = %v, want %v", im.Name, i/2, k, got, want)
					}
					oracle[k] = true
				case 1:
					want := oracle[k]
					if got := s.Remove(k); got != want {
						t.Fatalf("%s: step %d Remove(%d) = %v, want %v", im.Name, i/2, k, got, want)
					}
					delete(oracle, k)
				default:
					if got := s.Contains(k); got != oracle[k] {
						t.Fatalf("%s: step %d Contains(%d) = %v, want %v", im.Name, i/2, k, got, oracle[k])
					}
				}
			}
			if s.Len() != len(oracle) {
				t.Fatalf("%s: final Len = %d, want %d", im.Name, s.Len(), len(oracle))
			}
			snap := s.Snapshot()
			if len(snap) != len(oracle) {
				t.Fatalf("%s: final Snapshot size %d, want %d", im.Name, len(snap), len(oracle))
			}
			for i, v := range snap {
				if !oracle[v] {
					t.Fatalf("%s: Snapshot holds %d which the oracle lacks", im.Name, v)
				}
				if i > 0 && snap[i-1] >= v {
					t.Fatalf("%s: Snapshot not strictly ascending: %v", im.Name, snap)
				}
			}
		}
	})
}

// FuzzShardedVsOracle runs the program on every sharded form at the
// tightest partition of the fuzz key domain — one key per shard, 32
// shards over [0, 32) — so every pair of neighbouring keys crosses a
// seam (FuzzSequentialVsOracle runs the same forms at spans of 8);
// results must match the map oracle exactly and the snapshot must stay
// ascending across shards.
func FuzzShardedVsOracle(f *testing.F) {
	seedCorpus(f)
	var shardable []Impl
	for _, im := range allForms(0, 32) {
		if strings.Contains(im.Name, "-sharded") {
			shardable = append(shardable, im)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip()
		}
		for _, im := range shardable {
			s := im.NewSharded(32, 0, 32)
			oracle := map[int64]bool{}
			for i := 0; i+1 < len(prog); i += 2 {
				kind, k := decodeOp(prog[i], prog[i+1])
				switch kind {
				case 0:
					want := !oracle[k]
					if got := s.Insert(k); got != want {
						t.Fatalf("%s/4x8: step %d Insert(%d) = %v, want %v", im.Name, i/2, k, got, want)
					}
					oracle[k] = true
				case 1:
					want := oracle[k]
					if got := s.Remove(k); got != want {
						t.Fatalf("%s/4x8: step %d Remove(%d) = %v, want %v", im.Name, i/2, k, got, want)
					}
					delete(oracle, k)
				default:
					if got := s.Contains(k); got != oracle[k] {
						t.Fatalf("%s/4x8: step %d Contains(%d) = %v, want %v", im.Name, i/2, k, got, oracle[k])
					}
				}
			}
			if s.Len() != len(oracle) {
				t.Fatalf("%s/4x8: final Len = %d, want %d", im.Name, s.Len(), len(oracle))
			}
			snap := s.Snapshot()
			if len(snap) != len(oracle) {
				t.Fatalf("%s/4x8: final Snapshot size %d, want %d", im.Name, len(snap), len(oracle))
			}
			for i, v := range snap {
				if !oracle[v] {
					t.Fatalf("%s/4x8: Snapshot holds %d which the oracle lacks", im.Name, v)
				}
				if i > 0 && snap[i-1] >= v {
					t.Fatalf("%s/4x8: Snapshot not strictly ascending: %v", im.Name, snap)
				}
			}
		}
	})
}

// FuzzArenaVsOracle runs the program on every implementation's arena
// form (NewArena) with the op stream repeated enough times that retired
// nodes cross their two-epoch grace period and recycle mid-program —
// the result stream must keep matching the map oracle through reuse,
// and the arena's conservation invariant (Recycled <= Retired) must
// hold at the end.
func FuzzArenaVsOracle(f *testing.F) {
	seedCorpus(f)
	var arenas []Impl
	for _, im := range Implementations() {
		if im.NewArena != nil {
			arenas = append(arenas, im)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			t.Skip()
		}
		for _, im := range arenas {
			name := im.Name + "-arena"
			s, ok := im.NewArena().(interface {
				Set
				ArenaStats() (mem.Stats, bool)
			})
			if !ok {
				t.Fatalf("%s: does not report ArenaStats", name)
			}
			oracle := map[int64]bool{}
			// Repeat the program: the first pass seeds retirements, the
			// later passes run against recycled nodes.
			for round := 0; round < 6; round++ {
				for i := 0; i+1 < len(prog); i += 2 {
					kind, k := decodeOp(prog[i], prog[i+1])
					switch kind {
					case 0:
						want := !oracle[k]
						if got := s.Insert(k); got != want {
							t.Fatalf("%s: round %d step %d Insert(%d) = %v, want %v", name, round, i/2, k, got, want)
						}
						oracle[k] = true
					case 1:
						want := oracle[k]
						if got := s.Remove(k); got != want {
							t.Fatalf("%s: round %d step %d Remove(%d) = %v, want %v", name, round, i/2, k, got, want)
						}
						delete(oracle, k)
					default:
						if got := s.Contains(k); got != oracle[k] {
							t.Fatalf("%s: round %d step %d Contains(%d) = %v, want %v", name, round, i/2, k, got, oracle[k])
						}
					}
				}
			}
			if s.Len() != len(oracle) {
				t.Fatalf("%s: final Len = %d, want %d", name, s.Len(), len(oracle))
			}
			snap := s.Snapshot()
			for i, v := range snap {
				if !oracle[v] {
					t.Fatalf("%s: Snapshot holds %d which the oracle lacks", name, v)
				}
				if i > 0 && snap[i-1] >= v {
					t.Fatalf("%s: Snapshot not strictly ascending: %v", name, snap)
				}
			}
			st, ok := s.ArenaStats()
			if !ok {
				t.Fatalf("%s: ArenaStats reports no arena", name)
			}
			if st.Recycled > st.Retired {
				t.Fatalf("%s: Recycled %d > Retired %d", name, st.Recycled, st.Retired)
			}
		}
	})
}

// FuzzImplementationsAgree splits the program into two goroutine-bound
// halves operating on DISJOINT key halves concurrently, then checks all
// forms of all implementations converge to the same final contents.
func FuzzImplementationsAgree(f *testing.F) {
	seedCorpus(f)
	impls := allForms(0, 32)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			t.Skip()
		}
		var finals [][]int64
		for _, im := range impls {
			if !im.ThreadSafe {
				continue
			}
			s := im.New()
			done := make(chan struct{}, 2)
			// Two workers, keys partitioned by parity so the outcome is
			// deterministic regardless of interleaving.
			for w := 0; w < 2; w++ {
				go func(w int) {
					defer func() { done <- struct{}{} }()
					for i := 0; i+1 < len(prog); i += 2 {
						kind, k := decodeOp(prog[i], prog[i+1])
						if int(k%2) != w {
							continue
						}
						switch kind {
						case 0:
							s.Insert(k)
						case 1:
							s.Remove(k)
						default:
							s.Contains(k)
						}
					}
				}(w)
			}
			<-done
			<-done
			finals = append(finals, s.Snapshot())
		}
		for i := 1; i < len(finals); i++ {
			if len(finals[i]) != len(finals[0]) {
				t.Fatalf("final contents diverge: %v vs %v", finals[0], finals[i])
			}
			for j := range finals[i] {
				if finals[i][j] != finals[0][j] {
					t.Fatalf("final contents diverge: %v vs %v", finals[0], finals[i])
				}
			}
		}
	})
}
