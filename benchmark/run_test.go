package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"listset"
)

// shortConfig is a fast run for tests: the real protocol, shrunk.
func shortConfig(t *testing.T, name string) Config {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(w, 42, 0.4, false)
	cfg.Windows = 4
	cfg.Warmup = 50 * time.Millisecond
	cfg.SetupReps = 1
	cfg.SetupMin = 0
	return cfg
}

func failedShare(r *Run) float64 { return float64(r.failed) / float64(r.attempted) }

func TestCleanRunsPassTheAudit(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := shortConfig(t, w.Name)
			cfg.Trace = trace
			r, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted == 0 || r.failed != 0 || len(r.problems) != 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d, problems %q", w.Name, trace, r.attempted, r.failed, r.problems)
			}
			ms := r.endToEndMetrics()
			if trace {
				ms = r.perLayerMetrics()
			} else {
				for _, m := range ms {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, m.Value)
					}
				}
			}
			if len(ms) != len(endToEnd) && len(ms) != len(perLayer) {
				t.Fatalf("%s: %d metrics", w.Name, len(ms))
			}
		}
	}
}

// dropEvery is a seeded-bad set: every n-th Insert of an absent key
// claims success without inserting.
type dropEvery struct {
	listset.Set
	n       int64
	absents atomic.Int64
}

func (d *dropEvery) Insert(v int64) bool {
	if !d.Set.Contains(v) && d.absents.Add(1)%d.n == 0 {
		return true
	}
	return d.Set.Insert(v)
}

func TestSeededBadSetFailsTheAudit(t *testing.T) {
	// batch-scan reaches the wrapper through AsBatcher's per-key fallback.
	for _, name := range []string{"list-contention", "batch-scan"} {
		cfg := shortConfig(t, name)
		cfg.Seconds = 1.5
		bad := &dropEvery{n: 1000}
		cfg.Wrap = func(s listset.Set) listset.Set { bad.Set = s; return bad }
		r, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bad.absents.Load() < bad.n {
			t.Fatalf("%s: only %d inserts of absent keys reached the wrapper", name, bad.absents.Load())
		}
		if failedShare(r) <= 0 || len(r.problems) == 0 {
			t.Fatalf("%s: a set dropping every 1000th insert passed the audit (failed share %v)", name, failedShare(r))
		}
		for _, m := range r.endToEndMetrics() {
			if m.Name == "ok_op_share" && m.Value >= 1 {
				t.Fatalf("%s: ok_op_share = %v with a failing audit", name, m.Value)
			}
		}
	}
}

func TestSetupRepeatsSpreadOverWindows(t *testing.T) {
	cfg := shortConfig(t, "batch-scan")
	cfg.SetupReps = cfg.Windows
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.setup) != cfg.SetupReps || len(r.problems) != 0 {
		t.Fatalf("%d setup repetitions, want %d; problems %q", len(r.setup), cfg.SetupReps, r.problems)
	}
	// The measured set is built before the warmup; each later
	// repetition comes one window after the previous one.
	var starts []int64
	for _, s := range r.setupSpans {
		if s.name == "construct" {
			starts = append(starts, s.start)
		}
	}
	length := time.Duration(cfg.Seconds / float64(cfg.Windows) * float64(time.Second))
	for i := 1; i < len(starts); i++ {
		if gap := time.Duration(starts[i] - starts[i-1]); gap < length*9/10 {
			t.Fatalf("setup repetitions %d and %d only %v apart, want a window (%v)", i-1, i, gap, length)
		}
	}
}

func TestLatencySampledAtStride(t *testing.T) {
	r, err := run(shortConfig(t, "list-contention"))
	if err != nil {
		t.Fatal(err)
	}
	var ops, single, scans uint64
	for i, wd := range r.windows {
		ops += wd.ops
		for _, wk := range r.workers {
			single += wk.lat[i][classRead].Count() + wk.lat[i][classWrite].Count()
			scans += wk.lat[i][classScan].Count()
		}
	}
	// Every scan is timed; every sampleStride-th single-key call is.
	want := float64(ops-scans) / sampleStride
	if got := float64(single); got < want-float64(2*len(r.workers)) || got > want+float64(2*len(r.workers)) {
		t.Fatalf("%v single-key latencies from %d calls, want %v", got, ops-scans, want)
	}
}

func TestTimedPathAllocatesNothing(t *testing.T) {
	// A read-only workload: the only allocations left in a window are
	// the window's own goroutines and timers, not per call.
	w, _ := lookupWorkload("list-contention")
	w.Mix = [numOps]int{100, 0, 0, 0}
	construct, err := w.constructor()
	if err != nil {
		t.Fatal(err)
	}
	s := construct()
	listset.AsLoader(s).Load(InitialKeys(1, w.KeyRange))
	wk := newWorker(0, &w, 1, 1)
	wk.attach(s)
	var stop atomic.Bool
	c := &windowCtl{stop: &stop, epoch: time.Now(), deadline: time.Hour, done: make(chan struct{})}
	c.left.Store(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go wk.loop(c)
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	<-c.done
	runtime.ReadMemStats(&after)
	if wk.lastOps < 500 {
		t.Fatalf("only %d calls in 300ms", wk.lastOps)
	}
	if n := after.Mallocs - before.Mallocs; n > 16 {
		t.Fatalf("%d allocations over %d timed-path calls", n, wk.lastOps)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, table %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, c := range []struct {
		name      string
		json, tab []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.tab) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", c.name, len(c.json), len(c.tab))
		}
		for i := range c.json {
			if c.json[i] != c.tab[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, table %+v", c.name, i, c.json[i], c.tab[i])
			}
		}
	}
}

// badScan answers every RangeScan with a key outside [lo, hi).
type badScan struct{ listset.Set }

func (b badScan) RangeScan(lo, hi int64) []int64            { return []int64{hi} }
func (b badScan) Ascend(from int64, yield func(int64) bool) {}

func TestFailedCallCountsItsOwnOps(t *testing.T) {
	cfg := shortConfig(t, "list-contention")
	cfg.Wrap = func(s listset.Set) listset.Set { return badScan{s} }
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scans are 1% of calls and each counts one op: the bad scans fail,
	// the rest of the run does not. Each worker reports its first.
	if r.failed == 0 || r.failed > r.attempted/20 || len(r.problems) != len(r.workers) {
		t.Fatalf("failed %d of %d ops, problems %q", r.failed, r.attempted, r.problems)
	}
}
