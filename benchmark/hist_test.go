package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestHistQuantilesMatchSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 1000, 100000} {
		var h Hist
		vals := make([]int64, n)
		for i := range vals {
			// Log-uniform over 10 ns .. 10 ms, the span op latencies cover.
			vals[i] = int64(math.Exp(rng.Float64()*math.Log(1e6)) * 10)
			h.Record(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			want := float64(vals[max(rank, 1)-1])
			got := h.Quantile(q)
			// Exact below 256 ns; above, within half a sub-bucket (1/256).
			if math.Abs(got-want) > want/256+0.5 {
				t.Errorf("n=%d q=%v: got %v, oracle %v", n, q, got, want)
			}
		}
	}
}

func TestHistBucketsContiguous(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<20; v++ {
		b := bucketOf(v)
		if b != prev && b != prev+1 {
			t.Fatalf("bucketOf(%d) = %d after %d", v, b, prev)
		}
		if mid := bucketMid(b); math.Abs(mid-float64(v)) > float64(v)/256+0.5 {
			t.Fatalf("bucket %d midpoint %v is too far from %d", b, mid, v)
		}
		prev = b
	}
	if bucketOf(math.MaxUint64) != histBuckets-1 {
		t.Fatal("huge value not clamped to the top bucket")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all Hist
	for v := int64(0); v < 5000; v += 3 {
		a.Record(v)
		all.Record(v)
		b.Record(v * 7)
		all.Record(v * 7)
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from recording everything into one")
	}
}

func TestHistRecordAllocatesNothing(t *testing.T) {
	var h Hist
	if a := testing.AllocsPerRun(1000, func() { h.Record(12345) }); a != 0 {
		t.Fatalf("Record allocates %v per call", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([3, 1, 2], n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
