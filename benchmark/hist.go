package main

import "math/bits"

// Hist is the benchmark's latency recorder: a fixed-size log-linear
// histogram of nanosecond durations with 128 sub-buckets per power of
// two, so a percentile read back is within 1/256 of the recorded value
// (values below 256 ns are exact). It is a plain array owned by one
// worker: Record is an index computation and one increment, and never
// allocates.
type Hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	maxShift    = 33 // top bucket starts at 255<<33 ns, about 36 minutes
	histBuckets = (maxShift + 2) * subCount
)

// bucketOf maps v to its bucket: values below 2·subCount are their own
// bucket; above, v keeps its top subBits+1 bits m ∈ [128, 256) and the
// bucket is shift·128 + m, which is contiguous across octaves.
func bucketOf(v uint64) int {
	if v < 2*subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	if shift > maxShift {
		return histBuckets - 1
	}
	return shift*subCount + int(v>>uint(shift))
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 2*subCount {
		return float64(i)
	}
	shift := i/subCount - 1
	lo := uint64(i-shift*subCount) << uint(shift)
	width := uint64(1) << uint(shift)
	return float64(lo) + float64(width-1)/2
}

// Record adds one duration in nanoseconds; negative values count as 0.
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Merge adds o's counts into h.
func (h *Hist) Merge(o *Hist) {
	h.n += o.n
	for i, c := range &o.counts {
		h.counts[i] += c
	}
}

// Reset empties h.
func (h *Hist) Reset() { *h = Hist{} }

// Quantile returns the nearest-rank q-quantile (0 < q ≤ 1): the value
// of the ⌈q·n⌉-th smallest sample, to bucket resolution. It returns 0
// on an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range &h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}
