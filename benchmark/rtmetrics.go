package main

import (
	"math"
	"runtime/metrics"
)

// runtime/metrics read at the edges of every traced window.
const (
	rtGCCycles = iota
	rtGCCPU
	rtTotalCPU
	rtHeapLive
	rtGCPauses
	rtSchedLat
	numRT
)

var rtNames = [numRT]string{
	rtGCCycles: "/gc/cycles/total:gc-cycles",
	rtGCCPU:    "/cpu/classes/gc/total:cpu-seconds",
	rtTotalCPU: "/cpu/classes/total:cpu-seconds",
	rtHeapLive: "/gc/heap/live:bytes",
	rtGCPauses: "/sched/pauses/total/gc:seconds",
	rtSchedLat: "/sched/latencies:seconds",
}

// rtDelta sums the runtime's counters over the traced windows.
type rtDelta struct {
	gcCycles         uint64
	gcCPU, totalCPU  float64
	heapLive         []uint64 // at each traced window's end
	pauses, schedLat histDelta
}

// histDelta accumulates the difference of a runtime histogram over
// intervals.
type histDelta struct {
	counts  []uint64
	buckets []float64 // bucket boundaries in seconds; len(counts)+1
}

type rtSampler struct {
	samples []metrics.Sample
	// Values at the traced window's start. The module's Go version
	// has every metric in rtNames, with fixed kinds.
	gcCycles         uint64
	gcCPU, totalCPU  float64
	pauses, schedLat []uint64
}

func newRTSampler() *rtSampler {
	s := &rtSampler{samples: make([]metrics.Sample, numRT)}
	for i, n := range rtNames {
		s.samples[i].Name = n
	}
	return s
}

// begin reads the counters at a traced window's start.
func (s *rtSampler) begin() {
	metrics.Read(s.samples)
	s.gcCycles = s.samples[rtGCCycles].Value.Uint64()
	s.gcCPU = s.samples[rtGCCPU].Value.Float64()
	s.totalCPU = s.samples[rtTotalCPU].Value.Float64()
	s.pauses = append(s.pauses[:0], s.samples[rtGCPauses].Value.Float64Histogram().Counts...)
	s.schedLat = append(s.schedLat[:0], s.samples[rtSchedLat].Value.Float64Histogram().Counts...)
}

// end reads the counters at the window's end and adds the difference
// to d.
func (s *rtSampler) end(d *rtDelta) {
	metrics.Read(s.samples)
	d.gcCycles += s.samples[rtGCCycles].Value.Uint64() - s.gcCycles
	d.gcCPU += s.samples[rtGCCPU].Value.Float64() - s.gcCPU
	d.totalCPU += s.samples[rtTotalCPU].Value.Float64() - s.totalCPU
	d.heapLive = append(d.heapLive, s.samples[rtHeapLive].Value.Uint64())
	d.pauses.add(s.samples[rtGCPauses].Value.Float64Histogram(), s.pauses)
	d.schedLat.add(s.samples[rtSchedLat].Value.Float64Histogram(), s.schedLat)
}

// add accumulates h minus the counts prev it had at the window's start.
func (hd *histDelta) add(h *metrics.Float64Histogram, prev []uint64) {
	if hd.counts == nil {
		hd.counts = make([]uint64, len(h.Counts))
		hd.buckets = append([]float64(nil), h.Buckets...)
	}
	for j, c := range h.Counts {
		hd.counts[j] += c - prev[j]
	}
}

// quantileNs returns the q-quantile of the accumulated histogram in
// nanoseconds, read as the upper edge of the bucket it falls in (the
// lower edge for the open top bucket); 0 when nothing was recorded.
func (h *histDelta) quantileNs(q float64) float64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			edge := h.buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = h.buckets[i]
			}
			return edge * 1e9
		}
	}
	return 0
}
