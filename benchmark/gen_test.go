package main

import (
	"math"
	"slices"
	"testing"
)

func TestGenSameSeedSameStream(t *testing.T) {
	w, _ := lookupWorkload("batch-scan")
	draw := func(seed uint64, worker int) []int64 {
		g := NewGen(seed, worker, &w)
		var out []int64
		keys := make([]int64, w.Batch)
		for i := 0; i < 1000; i++ {
			op := g.Op()
			out = append(out, int64(op))
			if op == OpScan {
				out = append(out, g.Key())
			} else {
				g.Fill(keys)
				out = append(out, keys...)
			}
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !slices.Equal(a, b) {
		t.Fatal("same seed and worker gave different streams")
	}
	if slices.Equal(a, draw(8, 0)) || slices.Equal(a, draw(7, 1)) {
		t.Fatal("different seed or worker gave the same stream")
	}
	if !slices.Equal(InitialKeys(7, 4096), InitialKeys(7, 4096)) || slices.Equal(InitialKeys(7, 4096), InitialKeys(8, 4096)) {
		t.Fatal("initial keys are not a function of the seed")
	}
}

func TestGenMixAndRange(t *testing.T) {
	for _, w := range workloads {
		sum := 0
		for _, pct := range w.Mix {
			sum += pct
		}
		if sum != 100 || w.KeyRange < 1 {
			t.Fatalf("%s: malformed workload %+v", w.Name, w)
		}
		g := NewGen(1, 0, &w)
		const n = 200000
		var counts [numOps]int
		for i := 0; i < n; i++ {
			counts[g.Op()]++
			if k := g.Key(); k < 0 || k >= w.KeyRange {
				t.Fatalf("%s: key %d outside [0, %d)", w.Name, k, w.KeyRange)
			}
		}
		for op, pct := range w.Mix {
			got := float64(counts[op]) / n * 100
			if math.Abs(got-float64(pct)) > 0.5 {
				t.Errorf("%s: %s drawn %.2f%% of calls, want %d%%", w.Name, Op(op), got, pct)
			}
		}
	}
}

func TestInitialKeysHalfTheRange(t *testing.T) {
	keys := InitialKeys(3, 1<<16)
	if !slices.IsSorted(keys) || len(slices.Compact(slices.Clone(keys))) != len(keys) {
		t.Fatal("initial keys not strictly ascending")
	}
	if len(keys) != 1<<15 {
		t.Fatalf("%d initial keys, want half the range", len(keys))
	}
	// Uniform: the lower half of the range holds half of them.
	lower, _ := slices.BinarySearch(keys, 1<<15)
	if got := float64(lower) / float64(len(keys)); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("%.3f of the initial keys in the lower half, want 0.5", got)
	}
}

func TestGenAllocatesNothing(t *testing.T) {
	w, _ := lookupWorkload("batch-scan")
	g := NewGen(1, 0, &w)
	keys := make([]int64, w.Batch)
	if a := testing.AllocsPerRun(1000, func() { g.Op(); g.Key(); g.Fill(keys) }); a != 0 {
		t.Fatalf("generator allocates %v per call", a)
	}
}
