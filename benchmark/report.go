package main

import (
	"math"
	"sort"

	"listset/internal/obs"
)

// metricDef names one reported metric. The end-to-end and per-layer
// tables here are the ones BENCHMARK.json declares (a test holds the
// two in step).
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"throughput_mops", "Mops/s", "higher"},
	{"read_p50_ns", "ns", "lower"},
	{"read_p99_ns", "ns", "lower"},
	{"write_p50_ns", "ns", "lower"},
	{"write_p99_ns", "ns", "lower"},
	{"scan_p50_ns", "ns", "lower"},
	{"scan_p99_ns", "ns", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_bytes_per_key", "B/key", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"ok_op_share", "fraction", "higher"},
}

var perLayer = []metricDef{
	{"bench.driver_self_share", "fraction", "lower"},
	{"bench.trace_overhead", "fraction", "lower"},
	{"listset.construct_s", "s", "lower"},
	{"listset.load_s", "s", "lower"},
	{"listset.contains_ns", "ns", "lower"},
	{"listset.insert_ns", "ns", "lower"},
	{"listset.remove_ns", "ns", "lower"},
	{"listset.contains_all_ns_per_key", "ns/key", "lower"},
	{"listset.insert_all_ns_per_key", "ns/key", "lower"},
	{"listset.remove_all_ns_per_key", "ns/key", "lower"},
	{"listset.range_scan_ns", "ns", "lower"},
	{"listset.range_scan_keys", "keys", "higher"},
	{"listset.contains_hit_share", "fraction", "higher"},
	{"listset.insert_ok_share", "fraction", "higher"},
	{"listset.remove_ok_share", "fraction", "higher"},
	{"core.restart_prev_per_update", "1/update", "lower"},
	{"core.restart_head_per_update", "1/update", "lower"},
	{"core.valfail_deleted_per_update", "1/update", "lower"},
	{"core.valfail_succ_per_update", "1/update", "lower"},
	{"core.valfail_value_per_update", "1/update", "lower"},
	{"core.helped_unlink_share", "fraction", "lower"},
	{"trylock.contended_per_update", "1/update", "lower"},
	{"skiplist.restart_l0_per_update", "1/update", "lower"},
	{"skiplist.index_link_retry_per_insert", "1/insert", "lower"},
	{"skiplist.index_unlink_per_remove", "1/remove", "lower"},
	{"skiplist.tower_alloc_per_insert", "1/insert", "lower"},
	{"shard.size_skew", "ratio", "lower"},
	{"shard.batch_split_per_call", "1/call", "lower"},
	{"batch.window_restart_per_call", "1/call", "lower"},
	{"mem.node_alloc_per_insert", "1/insert", "lower"},
	{"mem.recycle_buckets_per_epoch", "1/epoch", "higher"},
	{"mem.limbo_retire_per_remove", "1/remove", "lower"},
	{"mem.epoch_advance_per_s", "1/s", "higher"},
	{"runtime.gc_cycles_per_s", "1/s", "lower"},
	{"runtime.gc_cpu_share", "fraction", "lower"},
	{"runtime.gc_pause_p99_ns", "ns", "lower"},
	{"runtime.sched_latency_p99_ns", "ns", "lower"},
	{"runtime.heap_live_bytes", "B", "lower"},
}

// Metric is one reported value with its steadiness evidence.
type Metric struct {
	metricDef
	Value float64
	// Spread is the quartile distance over the median of the run's
	// sub-window (or setup-repeat) values; nil for a single reading.
	Spread *float64
	// Samples is the number of latencies behind a percentile, else the
	// number of sub-values the median is taken over.
	Samples uint64
}

// endToEndMetrics computes the gated metrics from the untraced windows.
func (r *Run) endToEndMetrics() []Metric {
	var tput, allocs []float64
	var lats [numClasses][2][]float64 // p50, p99 per window
	var latN [numClasses]uint64
	var ops, allocSum uint64
	var merged Hist
	for i, wd := range r.windows {
		if wd.traced {
			continue
		}
		tput = append(tput, float64(wd.ops)/wd.dur.Seconds()/1e6)
		allocs = append(allocs, ratio(float64(wd.allocs), float64(wd.ops)))
		ops += wd.ops
		allocSum += wd.allocs
		for c := 0; c < numClasses; c++ {
			merged.Reset()
			for _, wk := range r.workers {
				merged.Merge(&wk.lat[i][c])
			}
			if merged.Count() == 0 {
				continue
			}
			latN[c] += merged.Count()
			lats[c][0] = append(lats[c][0], merged.Quantile(0.50))
			lats[c][1] = append(lats[c][1], merged.Quantile(0.99))
		}
	}
	var setup []float64
	for _, s := range r.setup {
		setup = append(setup, (s.construct + s.load).Seconds())
	}
	ok := 1 - ratio(float64(r.failed), float64(r.attempted))
	values := map[string]Metric{
		"throughput_mops":    windowed(tput),
		"read_p50_ns":        sampled(lats[classRead][0], latN[classRead]),
		"read_p99_ns":        sampled(lats[classRead][1], latN[classRead]),
		"write_p50_ns":       sampled(lats[classWrite][0], latN[classWrite]),
		"write_p99_ns":       sampled(lats[classWrite][1], latN[classWrite]),
		"scan_p50_ns":        sampled(lats[classScan][0], latN[classScan]),
		"scan_p99_ns":        sampled(lats[classScan][1], latN[classScan]),
		"setup_s":            windowed(setup),
		"heap_bytes_per_key": {Value: r.heapPerKey, Samples: 1},
		"allocs_per_op":      {Value: ratio(float64(allocSum), float64(ops)), Spread: spreadOf(allocs), Samples: uint64(len(allocs))},
		"ok_op_share":        {Value: ok, Samples: r.attempted},
	}
	return fill(endToEnd, values)
}

// perLayerMetrics computes the per-layer metrics from the traced
// windows. A metric of a layer or call the workload does not exercise
// reads 0.
func (r *Run) perLayerMetrics() []Metric {
	if r.stalled {
		return fill(perLayer, nil) // the stuck workers' counters are still theirs
	}
	var tracedT, plainT []float64
	var tracedSecs float64
	for _, wd := range r.windows {
		t := float64(wd.ops) / wd.dur.Seconds() / 1e6
		if wd.traced {
			tracedT = append(tracedT, t)
			tracedSecs += wd.dur.Seconds()
		} else {
			plainT = append(plainT, t)
		}
	}
	var st [numOps]opStats
	var busy, wall uint64
	for _, wk := range r.workers {
		for op := range st {
			s := &st[op]
			s.calls += wk.stats[op].calls
			s.keys += wk.stats[op].keys
			s.ns += wk.stats[op].ns
			s.res += wk.stats[op].res
		}
		busy += wk.busyNs
		wall += wk.tracedWall
	}
	batched := r.cfg.W.Batch > 0
	perCall := func(op Op, single bool) float64 {
		if batched == single {
			return 0
		}
		if single {
			return ratio(float64(st[op].ns), float64(st[op].calls))
		}
		return ratio(float64(st[op].ns), float64(st[op].keys))
	}
	share := func(op Op) float64 { return ratio(float64(st[op].res), float64(st[op].keys)) }
	inserts, removes := float64(st[OpInsert].keys), float64(st[OpRemove].keys)
	updates := inserts + removes
	batchCalls := 0.0
	if batched {
		batchCalls = float64(st[OpContains].calls + st[OpInsert].calls + st[OpRemove].calls)
	}
	ev := func(e obs.Event) float64 { return float64(r.probes[e]) }
	var construct, load []float64
	for _, s := range r.setup {
		construct = append(construct, s.construct.Seconds())
		load = append(load, s.load.Seconds())
	}
	heap := make([]float64, len(r.rt.heapLive))
	for i, h := range r.rt.heapLive {
		heap[i] = float64(h)
	}
	v := func(x float64) Metric { return Metric{Value: x} }
	values := map[string]Metric{
		"bench.driver_self_share":              v(1 - ratio(float64(busy), float64(wall))),
		"bench.trace_overhead":                 v(1 - ratio(median(tracedT), median(plainT))),
		"listset.construct_s":                  windowed(construct),
		"listset.load_s":                       windowed(load),
		"listset.contains_ns":                  v(perCall(OpContains, true)),
		"listset.insert_ns":                    v(perCall(OpInsert, true)),
		"listset.remove_ns":                    v(perCall(OpRemove, true)),
		"listset.contains_all_ns_per_key":      v(perCall(OpContains, false)),
		"listset.insert_all_ns_per_key":        v(perCall(OpInsert, false)),
		"listset.remove_all_ns_per_key":        v(perCall(OpRemove, false)),
		"listset.range_scan_ns":                v(ratio(float64(st[OpScan].ns), float64(st[OpScan].calls))),
		"listset.range_scan_keys":              v(ratio(float64(st[OpScan].res), float64(st[OpScan].calls))),
		"listset.contains_hit_share":           v(share(OpContains)),
		"listset.insert_ok_share":              v(share(OpInsert)),
		"listset.remove_ok_share":              v(share(OpRemove)),
		"core.restart_prev_per_update":         v(ratio(ev(obs.EvRestartPrev), updates)),
		"core.restart_head_per_update":         v(ratio(ev(obs.EvRestartHead), updates)),
		"core.valfail_deleted_per_update":      v(ratio(ev(obs.EvValFailDeleted), updates)),
		"core.valfail_succ_per_update":         v(ratio(ev(obs.EvValFailSucc), updates)),
		"core.valfail_value_per_update":        v(ratio(ev(obs.EvValFailValue), updates)),
		"core.helped_unlink_share":             v(ratio(ev(obs.EvHelpedUnlink), ev(obs.EvHelpedUnlink)+ev(obs.EvPhysicalUnlink))),
		"trylock.contended_per_update":         v(ratio(ev(obs.EvTryLockContended), updates)),
		"skiplist.restart_l0_per_update":       v(ratio(ev(obs.EvSkipRestartL0), updates)),
		"skiplist.index_link_retry_per_insert": v(ratio(ev(obs.EvSkipIndexLinkRetry), inserts)),
		"skiplist.index_unlink_per_remove":     v(ratio(ev(obs.EvSkipIndexUnlink), removes)),
		"skiplist.tower_alloc_per_insert":      v(ratio(ev(obs.EvSkipTowerHeight), inserts)),
		"shard.size_skew":                      v(r.shardSkew),
		"shard.batch_split_per_call":           v(ratio(ev(obs.EvBatchSplit), batchCalls)),
		"batch.window_restart_per_call":        v(ratio(ev(obs.EvBatchWindowRestart), batchCalls)),
		"mem.node_alloc_per_insert":            v(ratio(ev(obs.EvNodeAlloc), inserts)),
		"mem.recycle_buckets_per_epoch":        v(ratio(ev(obs.EvNodeRecycle), ev(obs.EvEpochAdvance))),
		"mem.limbo_retire_per_remove":          v(ratio(ev(obs.EvLimboRetire), removes)),
		"mem.epoch_advance_per_s":              v(ratio(ev(obs.EvEpochAdvance), tracedSecs)),
		"runtime.gc_cycles_per_s":              v(ratio(float64(r.rt.gcCycles), tracedSecs)),
		"runtime.gc_cpu_share":                 v(ratio(r.rt.gcCPU, r.rt.totalCPU)),
		"runtime.gc_pause_p99_ns":              v(r.rt.pauses.quantileNs(0.99)),
		"runtime.sched_latency_p99_ns":         v(r.rt.schedLat.quantileNs(0.99)),
		"runtime.heap_live_bytes":              v(median(heap)),
	}
	return fill(perLayer, values)
}

// fill orders values by defs and attaches each definition.
func fill(defs []metricDef, values map[string]Metric) []Metric {
	out := make([]Metric, len(defs))
	for i, d := range defs {
		m := values[d.Name]
		m.metricDef = d
		out[i] = m
	}
	return out
}

// windowed is the median of per-window values, with their spread.
func windowed(xs []float64) Metric {
	return Metric{Value: median(xs), Spread: spreadOf(xs), Samples: uint64(len(xs))}
}

// sampled is windowed for a latency percentile: Samples counts the
// latencies recorded, not the windows.
func sampled(xs []float64, n uint64) Metric {
	m := windowed(xs)
	m.Samples = n
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method). It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// spreadOf is the quartile distance over the median, the statistic
// the benchmark's bounds are checked against; nil for fewer than two
// values or a zero median.
func spreadOf(xs []float64) *float64 {
	if len(xs) < 2 {
		return nil
	}
	q := quartiles(xs)
	if q[1] == 0 {
		return nil
	}
	s := (q[2] - q[0]) / math.Abs(q[1])
	return &s
}
