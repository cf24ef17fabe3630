package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"listset"
	"listset/internal/obs"
)

// Config is one benchmark run.
type Config struct {
	W       Workload
	Seed    uint64
	Seconds float64 // measured time, split into Windows equal windows
	Trace   bool    // alternate untraced and traced windows; report per-layer metrics
	Windows int
	Warmup  time.Duration
	// Setup is repeated at least SetupReps times and for at least
	// SetupMin in all, spread over the windows; setup_s is the median.
	SetupReps int
	SetupMin  time.Duration
	// Wrap, when non-nil, wraps the measured set after it is loaded
	// (tests use it to plant a faulty set).
	Wrap func(listset.Set) listset.Set
}

func defaultConfig(w Workload, seed uint64, seconds float64, trace bool) Config {
	return Config{
		W: w, Seed: seed, Seconds: seconds, Trace: trace,
		Windows:   35,
		Warmup:    time.Second,
		SetupReps: 15,
		SetupMin:  time.Second,
	}
}

const (
	// setupSpanReps bounds the setup repetitions a traced run keeps
	// spans for: a small set repeats its setup ~10⁵ times in SetupMin.
	setupSpanReps = 64
	// stallAfter is the watchdog: a window whose workers have not all
	// returned this long after it ended fails the run.
	stallAfter = 10 * time.Second
)

// window is what the coordinator keeps of one measured window.
type window struct {
	traced bool
	dur    time.Duration
	ops    uint64
	allocs uint64
}

// Run is the measured state of one finished run.
type Run struct {
	cfg       Config
	workers   []*worker
	windows   []window
	setup     []setupRep
	attempted uint64
	failed    uint64
	problems  []string
	stalled   bool // the watchdog fired; workers may still be running

	setupTime  time.Duration // summed over r.setup
	liveKeys   int
	heapPerKey float64
	shardSkew  float64
	probes     obs.Snapshot // traced windows only
	rt         rtDelta      // traced windows only
	setupSpans []setupSpan
}

type setupRep struct{ construct, load time.Duration }

type setupSpan struct {
	name       string
	start, dur int64
}

// run performs one benchmark run: build the set, warm up, measure
// the windows, audit the result and measure its heap.
func run(cfg Config) (*Run, error) {
	w := &cfg.W
	construct, err := w.constructor()
	if err != nil {
		return nil, err
	}
	r := &Run{cfg: cfg}
	epoch := time.Now()
	for i := 0; i < workers; i++ {
		wk := newWorker(i, w, cfg.Seed, cfg.Windows)
		if cfg.Trace {
			wk.spans = make([][]span, cfg.Windows)
			for win := range wk.spans {
				if traced(cfg, win) {
					wk.spans[win] = make([]span, 0, spansPerWindow)
				}
			}
		}
		r.workers = append(r.workers, wk)
	}
	var probes *obs.Probes
	if cfg.Trace {
		probes = obs.NewProbes()
	}
	keys := InitialKeys(cfg.Seed, w.KeyRange)

	r.gc(epoch)
	set := r.setupOnce(construct, keys, epoch)
	if cfg.Wrap != nil {
		set = cfg.Wrap(set)
	}
	for _, wk := range r.workers {
		wk.attach(set)
	}

	var stop atomic.Bool
	if !r.window(&stop, epoch, -1, cfg.Warmup, nil) {
		return r.stall(), nil
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var rt *rtSampler
	if cfg.Trace {
		rt = newRTSampler()
	}
	length := time.Duration(cfg.Seconds / float64(cfg.Windows) * float64(time.Second))
	for win := 0; win < cfg.Windows; win++ {
		r.setupSlot(construct, keys, epoch, win)
		tr := traced(cfg, win)
		var before obs.Snapshot
		if tr {
			obs.Attach(set, probes)
			before = probes.Snapshot()
		}
		metrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		start := time.Now()
		if !r.window(&stop, epoch, win, length, rt) {
			return r.stall(), nil
		}
		dur := time.Since(start)
		metrics.Read(allocs)
		wd := window{traced: tr, dur: dur, allocs: allocs[0].Value.Uint64() - a0}
		for _, wk := range r.workers {
			wd.ops += wk.lastOps
		}
		if tr {
			r.probes = r.probes.Add(probes.Snapshot().Sub(before))
			obs.Attach(set, nil)
		}
		r.windows = append(r.windows, wd)
	}

	// A failed run-level check counts every attempted op as failed; a
	// failed call counts only its own ops.
	runOK := len(r.problems) == 0
	for _, wk := range r.workers {
		r.failed += wk.failed
		if wk.problem != "" {
			r.problems = append(r.problems, wk.problem)
		}
		if wk.panicked != "" {
			r.problems = append(r.problems, wk.panicked)
			runOK = false
		}
	}
	if !r.auditSet(set, len(keys)) {
		runOK = false
	}
	// Measure the set's retained heap as the live-heap difference with
	// and without it, so only memory the set holds counts. The readings
	// are taken on one P: the collector then has no idle P to wake and
	// starts no OS thread between them. A new thread adds about 5 KB of
	// runtime structures to the heap, more than list-contention's whole
	// set, and such runs read below 0 B/key.
	procs := runtime.GOMAXPROCS(1)
	threads := pprof.Lookup("threadcreate")
	t0 := threads.Count()
	withSet := liveHeap()
	set = nil
	for _, wk := range r.workers {
		wk.attach(nil)
	}
	without := liveHeap()
	newThreads := threads.Count() - t0
	runtime.GOMAXPROCS(procs)
	if r.liveKeys > 0 {
		held := int64(withSet) - int64(without)
		r.heapPerKey = float64(held) / float64(r.liveKeys)
		if held <= 0 {
			r.problems = append(r.problems, fmt.Sprintf("heap_bytes_per_key: the live heap with the set is %d B, without it %d B more (%d threads started between the readings)", withSet, -held, newThreads))
			runOK = false
		}
	}
	runtime.KeepAlive(keys)
	if !runOK {
		r.failed = r.attempted
	}
	return r, nil
}

// traced reports whether window win of a traced run is a traced
// window: they alternate with untraced ones, so host drift hits both
// alike and trace overhead is a paired difference.
func traced(cfg Config, win int) bool { return cfg.Trace && win%2 == 1 }

// setupOnce constructs a set and loads keys into it, timed, and
// returns it. A Load that does not report every key is a problem.
func (r *Run) setupOnce(construct func() listset.Set, keys []int64, epoch time.Time) listset.Set {
	t0 := time.Since(epoch)
	s := construct()
	t1 := time.Since(epoch)
	loaded := listset.AsLoader(s).Load(keys)
	t2 := time.Since(epoch)
	if loaded != len(keys) {
		r.problems = append(r.problems, fmt.Sprintf("Load of %d distinct keys into an empty set returned %d", len(keys), loaded))
	}
	if len(r.setup) < setupSpanReps {
		r.setupSpans = append(r.setupSpans,
			setupSpan{"construct", int64(t0), int64(t1 - t0)},
			setupSpan{"load", int64(t1), int64(t2 - t1)})
	}
	r.setup = append(r.setup, setupRep{construct: t1 - t0, load: t2 - t1})
	r.setupTime += t2 - t0
	return s
}

// setupSlot repeats setup before measured window win, discarding each
// set, until SetupReps repetitions and SetupMin of setup time are due
// in proportion to the windows done. Setup is thus sampled across the
// run like throughput: host speed moves in phases longer than a
// second, so repetitions bunched at the start would see one phase
// only. Forced collections bracket a slot, so every repetition starts
// from the same heap (the measured set and the benchmark's buffers)
// and no window pays for a slot's garbage.
func (r *Run) setupSlot(construct func() listset.Set, keys []int64, epoch time.Time, win int) {
	share := float64(win+1) / float64(r.cfg.Windows)
	due := func() bool {
		return float64(len(r.setup)) < math.Ceil(share*float64(r.cfg.SetupReps)) ||
			r.setupTime < time.Duration(share*float64(r.cfg.SetupMin))
	}
	if !due() {
		return
	}
	r.gc(epoch)
	for due() {
		r.setupOnce(construct, keys, epoch)
	}
	r.gc(epoch)
}

// gc forces a collection, with a span while setup spans are kept.
func (r *Run) gc(epoch time.Time) {
	g0 := time.Since(epoch)
	runtime.GC()
	if len(r.setup) < setupSpanReps {
		r.setupSpans = append(r.setupSpans, setupSpan{"gc", int64(g0), int64(time.Since(epoch) - g0)})
	}
}

// window runs every worker for length (win < 0 is warmup) and waits
// for them to stop themselves; it reports false if the watchdog fired.
// In a traced window the workers sample rt into r.rt.
func (r *Run) window(stop *atomic.Bool, epoch time.Time, win int, length time.Duration, rt *rtSampler) bool {
	stop.Store(false)
	c := &windowCtl{
		stop: stop, epoch: epoch, win: win,
		traced:   win >= 0 && traced(r.cfg, win),
		deadline: time.Since(epoch) + length,
	}
	if c.traced {
		c.rt, c.rtd = rt, &r.rt
	}
	c.left.Store(int32(len(r.workers)))
	c.done = make(chan struct{})
	for _, wk := range r.workers {
		go wk.loop(c)
	}
	watchdog := time.NewTimer(length + stallAfter)
	defer watchdog.Stop()
	select {
	case <-c.done:
	case <-watchdog.C:
		stop.Store(true)
		return false
	}
	for _, wk := range r.workers {
		r.attempted += wk.lastOps
	}
	return true
}

// stall is the result of a run whose watchdog fired: every op
// attempted so far counts as failed. The stuck workers are left
// running; the process exits after reporting.
func (r *Run) stall() *Run {
	r.stalled = true
	r.problems = append(r.problems, fmt.Sprintf("watchdog: workers still running %v after a window ended", stallAfter))
	if r.attempted == 0 {
		r.attempted = 1
	}
	r.failed = r.attempted
	return r
}

// auditSet checks the quiescent set against the run's accounting:
// Snapshot strictly ascending and inside the key range, and
// Len == len(Snapshot) == loaded + inserts - removes. It reports
// whether every check passed.
func (r *Run) auditSet(set listset.Set, loaded int) bool {
	before := len(r.problems)
	snap := set.Snapshot()
	n := set.Len()
	for i, k := range snap {
		if k < 0 || k >= r.cfg.W.KeyRange {
			r.problems = append(r.problems, fmt.Sprintf("Snapshot holds %d, outside [0, %d)", k, r.cfg.W.KeyRange))
			break
		}
		if i > 0 && k <= snap[i-1] {
			r.problems = append(r.problems, fmt.Sprintf("Snapshot not strictly ascending at %d: %d after %d", i, k, snap[i-1]))
			break
		}
	}
	want := int64(loaded)
	for _, wk := range r.workers {
		want += wk.inserted - wk.removed
	}
	if int64(n) != want || int64(len(snap)) != want {
		r.problems = append(r.problems, fmt.Sprintf("Len %d, len(Snapshot) %d, but loaded + inserted - removed = %d", n, len(snap), want))
	}
	r.liveKeys = n
	r.shardSkew = sizeSkew(set, snap)
	return len(r.problems) == before
}

// sizeSkew is the largest shard's key count over the mean, from the
// façade's boundaries and the final snapshot; 1 for an unsharded set.
func sizeSkew(set listset.Set, snap []int64) float64 {
	bs, ok := set.(interface{ Boundaries() []int64 })
	if !ok || len(snap) == 0 {
		return 1
	}
	bounds := bs.Boundaries()
	counts := make([]int, len(bounds))
	for _, k := range snap {
		// Shard i owns [bounds[i], bounds[i+1]); shard 0 also owns
		// everything below bounds[1].
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > k }) - 1
		if i < 0 {
			i = 0
		}
		counts[i]++
	}
	most := 0
	for _, c := range counts {
		most = max(most, c)
	}
	return float64(most) * float64(len(counts)) / float64(len(snap))
}

// liveHeap returns the heap bytes marked live by a forced collection,
// the least of three readings, so that a reading inflated by a few KB
// of passing runtime allocations does not count: that is most of
// list-contention's ~3 KB set. The first collection also empties
// sync.Pool victim caches.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.GC()
		metrics.Read(s)
		least = min(least, s[0].Value.Uint64())
	}
	return least
}
