package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// writeTrace writes the run's spans as Chrome trace-event JSON (open
// it in Perfetto or chrome://tracing): setup spans on track 0, each
// worker's window and call spans on track worker+1. Call spans nest
// inside their window span, whose uncovered time is the benchmark's own.
func (r *Run) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	sep := ""
	event := func(name string, tid int, start, dur int64, args string) {
		fmt.Fprintf(bw, "%s\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f%s}",
			sep, name, tid, float64(start)/1e3, float64(dur)/1e3, args)
		sep = ","
	}
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%q,\"seed\":%d},\"traceEvents\":[", r.cfg.W.Name, r.cfg.Seed)
	for _, s := range r.setupSpans {
		event("setup."+s.name, 0, s.start, s.dur, "")
	}
	for _, wk := range r.workers {
		for win, spans := range wk.spans {
			if len(spans) == 0 {
				continue
			}
			last := spans[len(spans)-1]
			event(fmt.Sprintf("window %d", win), wk.id+1, spans[0].start, last.start+last.dur-spans[0].start,
				fmt.Sprintf(",\"args\":{\"window\":%d}", win))
			for _, s := range spans {
				event("listset."+s.op.String(), wk.id+1, s.start, s.dur,
					fmt.Sprintf(",\"args\":{\"window\":%d,\"keys\":%d,\"result\":%d}", win, s.keys, s.res))
			}
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
