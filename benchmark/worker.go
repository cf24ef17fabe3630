package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"listset"
)

// Latency classes of the end-to-end metrics.
const (
	classRead = iota
	classWrite
	classScan
	numClasses
)

var classOf = [numOps]int{OpContains: classRead, OpInsert: classWrite, OpRemove: classWrite, OpScan: classScan}

// sampleStride times every sampleStride-th single-key call in an
// untraced window, so two clock reads (~50 ns) stay well under 1% of
// a sub-µs operation. Batch and scan calls cost many µs and are all
// timed.
const sampleStride = 8

// spansPerWindow bounds the spans one worker keeps per traced window.
const spansPerWindow = 2048

// opStats accumulates one call kind over the traced windows.
type opStats struct {
	calls, keys, ns, res uint64
}

// span is one timed call into the set, kept for the trace file.
type span struct {
	start, dur int64
	op         Op
	keys, res  int32
}

// worker is one closed-loop client: it issues its next call only when
// the previous one has returned. All of its fields are owned by the
// goroutine running loop during a window and read by the coordinator
// only after that goroutine has exited.
type worker struct {
	id    int
	gen   Gen
	set   listset.Set
	b     listset.Batcher
	rg    listset.Ranger
	batch []int64 // nil on a single-key workload

	tick               uint64
	inserted, removed  int64 // successful per-key updates, for the run-end audit
	failed             uint64
	problem            string
	panicked           string
	lastOps            uint64 // ops of the window that just ended
	lat                [][numClasses]Hist
	stats              [numOps]opStats // traced windows only
	busyNs, tracedWall uint64          // traced windows only
	spans              [][]span        // per traced window

	_ [64]byte // keep the next worker's hot fields off this one's lines
}

func newWorker(id int, w *Workload, seed uint64, windows int) *worker {
	wk := &worker{id: id, gen: NewGen(seed, id, w), lat: make([][numClasses]Hist, windows)}
	if w.Batch > 0 {
		wk.batch = make([]int64, w.Batch)
	}
	return wk
}

// attach points the worker at s; nil detaches it without allocating,
// so the heap measured after detaching holds nothing new.
func (w *worker) attach(s listset.Set) {
	if s == nil {
		w.set, w.b, w.rg = nil, nil, nil
		return
	}
	w.set, w.b, w.rg = s, listset.AsBatcher(s), listset.AsRanger(s)
}

// windowCtl is what the workers of one window share.
type windowCtl struct {
	stop     *atomic.Bool // set on a panic or by the watchdog
	epoch    time.Time
	win      int // < 0 is warmup
	traced   bool
	deadline time.Duration // offset from epoch
	// running counts the workers that have started. In a traced window
	// worker 0 samples rt into rtd once all of them run, and again when
	// it stops. Neither the goroutine starts nor the coordinator's
	// wake-up then fall inside the runtime metrics' interval.
	running atomic.Int32
	rt      *rtSampler
	rtd     *rtDelta
	// left counts the workers still running; the last to stop closes
	// done. No goroutine waits on the workers' behalf, so nothing else
	// becomes runnable while they hold both Ps.
	left atomic.Int32
	done chan struct{}
}

// loop runs calls until c.deadline has passed or c.stop is set. It
// checks the deadline only on calls it times, so it reads the clock no
// more often than latency sampling does and stops at most sampleStride
// calls late. Stopping itself, rather than being stopped, leaves the
// coordinator blocked for the whole window, so it never competes with
// the workers for a P. In warmup nothing is recorded but the op count.
// A traced window times every call and keeps its spans; an untraced
// one samples latency at sampleStride.
func (w *worker) loop(c *windowCtl) {
	var ops uint64
	epoch, win, traced := c.epoch, c.win, c.traced
	start := time.Since(epoch)
	defer func() {
		if p := recover(); p != nil {
			w.panicked = fmt.Sprintf("worker %d: %v\n%s", w.id, p, debug.Stack())
			c.stop.Store(true)
		}
		w.lastOps = ops
		if traced {
			w.tracedWall += uint64(time.Since(epoch) - start)
		}
		if c.left.Add(-1) == 0 {
			close(c.done)
		}
	}()
	c.running.Add(1)
	sampler := w.id == 0 && c.rt != nil
	if sampler {
		for c.running.Load() < workers {
			runtime.Gosched()
		}
		c.rt.begin()
	}
	var lat *[numClasses]Hist
	if win >= 0 && !traced {
		lat = &w.lat[win]
	}
	for !c.stop.Load() {
		op := w.gen.Op()
		var key int64
		if w.batch != nil && op != OpScan {
			w.gen.Fill(w.batch)
		} else {
			key = w.gen.Key()
		}
		timed := traced || w.batch != nil || op == OpScan
		if !timed {
			w.tick++
			timed = w.tick%sampleStride == 0
		}
		var t0 time.Duration
		if timed {
			t0 = time.Since(epoch)
		}
		n, res := w.call(op, key)
		ops += n
		if !timed {
			continue
		}
		t1 := time.Since(epoch)
		d := int64(t1 - t0)
		if lat != nil {
			lat[classOf[op]].Record(d)
		}
		if traced {
			w.trace(win, op, int64(t0), d, n, res)
		}
		if t1 >= c.deadline {
			break
		}
	}
	if sampler {
		c.rt.end(c.rtd)
	}
}

// call issues one call and audits its result. It returns the ops the
// call counts for (its key count) and its result: hits, successful
// updates, or keys scanned.
func (w *worker) call(op Op, key int64) (n uint64, res int) {
	if op == OpScan {
		lo, hi := key, key+scanWidth
		out := w.rg.RangeScan(lo, hi)
		for i, k := range out {
			if k < lo || k >= hi || (i > 0 && k <= out[i-1]) {
				w.fail(1, fmt.Sprintf("RangeScan(%d, %d) returned %v", lo, hi, out))
				break
			}
		}
		return 1, len(out)
	}
	if w.batch == nil {
		var ok bool
		switch op {
		case OpContains:
			ok = w.set.Contains(key)
		case OpInsert:
			if ok = w.set.Insert(key); ok {
				w.inserted++
			}
		case OpRemove:
			if ok = w.set.Remove(key); ok {
				w.removed++
			}
		}
		if ok {
			return 1, 1
		}
		return 1, 0
	}
	switch op {
	case OpContains:
		res = w.b.ContainsAll(w.batch)
	case OpInsert:
		res = w.b.InsertAll(w.batch)
		w.inserted += int64(res)
	case OpRemove:
		res = w.b.RemoveAll(w.batch)
		w.removed += int64(res)
	}
	if res < 0 || res > len(w.batch) {
		w.fail(uint64(len(w.batch)), fmt.Sprintf("%s of %d keys returned %d", op, len(w.batch), res))
	}
	return uint64(len(w.batch)), res
}

func (w *worker) fail(ops uint64, why string) {
	w.failed += ops
	if w.problem == "" {
		w.problem = why
	}
}

func (w *worker) trace(win int, op Op, start, dur int64, n uint64, res int) {
	st := &w.stats[op]
	st.calls++
	st.keys += n
	st.ns += uint64(dur)
	st.res += uint64(res)
	w.busyNs += uint64(dur)
	if sp := w.spans[win]; len(sp) < cap(sp) {
		w.spans[win] = append(sp, span{start: start, dur: dur, op: op, keys: int32(n), res: int32(res)})
	}
}
