// Command benchmark is the repository's closed-loop benchmark. It
// drives the root listset API from one process with a fixed number of
// worker goroutines, each issuing its next call only after the
// previous one returns, and reports end-to-end metrics (untraced run)
// or per-layer metrics (traced run) for one named workload. The last
// line of standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash benchmark/run.sh --workload list-contention --seed 1 --seconds 35 --trace 0
//
// See README.md for the workloads, the metric definitions and how to
// read a traced run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: list-contention, index-large or batch-scan")
	seed := flag.Uint64("seed", 1, "seed for the initial keys and every worker's op/key stream")
	seconds := flag.Float64("seconds", 35, "measured seconds (excluding setup and warmup)")
	trace := flag.Int("trace", 0, "1: alternate untraced and traced windows and report per-layer metrics")
	traceDir := flag.String("trace-dir", "", "directory for the traced run's span file (none if empty)")
	flag.Parse()
	w, err := lookupWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	cfg := defaultConfig(w, *seed, *seconds, *trace == 1)
	r, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.Trace && *traceDir != "" && !r.stalled {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", w.Name, *seed))
		if err := r.writeTrace(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		} else {
			fmt.Fprintln(os.Stderr, "benchmark: spans written to", path)
		}
	}
	correct, err := r.report(os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report prints the human-readable table, the provenance record and,
// last, the result line. It returns whether the run was correct.
func (r *Run) report(out *os.File) (bool, error) {
	bw := bufio.NewWriter(out)
	ms := r.endToEndMetrics()
	kind := "end-to-end (untraced)"
	if r.cfg.Trace {
		ms = r.perLayerMetrics()
		kind = "per-layer (traced windows)"
	}
	w := r.cfg.W
	fmt.Fprintf(bw, "workload %s: %s via %s", w.Name, w.Impl, w.Build)
	if w.Shards > 0 {
		fmt.Fprintf(bw, " S=%d", w.Shards)
	}
	fmt.Fprintf(bw, ", keys [0, %d), batch %d, mix", w.KeyRange, w.Batch)
	for op, pct := range w.Mix {
		fmt.Fprintf(bw, " %s %d%%", Op(op), pct)
	}
	fmt.Fprintf(bw, ", %d workers, seed %d, %g s in %d windows\n", workers, r.cfg.Seed, r.cfg.Seconds, r.cfg.Windows)
	fmt.Fprintf(bw, "%s metrics; spread = (Q3-Q1)/median over sub-windows or setup repeats\n", kind)
	fmt.Fprintf(bw, "%-38s %14s %-10s %8s %10s\n", "metric", "value", "unit", "spread", "samples")
	for _, m := range ms {
		spread, samples := "-", "-"
		if m.Spread != nil {
			spread = fmt.Sprintf("%.4f", *m.Spread)
		}
		if m.Samples > 0 {
			samples = fmt.Sprint(m.Samples)
		}
		fmt.Fprintf(bw, "%-38s %14.6g %-10s %8s %10s\n", m.Name, m.Value, m.Unit, spread, samples)
	}
	correct := len(r.problems) == 0 && r.failed == 0
	fmt.Fprintf(bw, "audit: %d ops attempted, %d failed\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(bw, "audit: FAIL %s\n", strings.TrimSpace(p))
	}

	type recMetric struct {
		Value   float64  `json:"value"`
		Unit    string   `json:"unit"`
		Spread  *float64 `json:"spread,omitempty"`
		Samples uint64   `json:"samples"`
	}
	recMetrics := map[string]recMetric{}
	lineMetrics := map[string]map[string]any{}
	for _, m := range ms {
		recMetrics[m.Name] = recMetric{m.Value, m.Unit, m.Spread, m.Samples}
		lineMetrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	var windowMops []float64
	for _, wd := range r.windows {
		windowMops = append(windowMops, float64(wd.ops)/wd.dur.Seconds()/1e6)
	}
	rec, err := json.Marshal(map[string]any{
		"record":     "listset/closedloop/v1",
		"provenance": provenance(r.cfg),
		"workload":   w,
		"config": map[string]any{
			"seconds": r.cfg.Seconds, "windows": r.cfg.Windows, "warmup_s": r.cfg.Warmup.Seconds(),
			"trace": r.cfg.Trace, "sample_stride": sampleStride,
			"workers": workers, "scan_width": scanWidth,
		},
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "problems": r.problems,
		"metrics": recMetrics, "window_mops": windowMops,
	})
	if err != nil {
		return false, fmt.Errorf("record: %w", err)
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": lineMetrics,
	})
	if err != nil {
		return false, fmt.Errorf("result line: %w", err)
	}
	fmt.Fprintf(bw, "%s\n%s\n", rec, line)
	return correct, bw.Flush()
}

// Provenance identifies what produced a record, so records from
// different commits and hosts form a trajectory.
type Provenance struct {
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GOGC       int64  `json:"gogc"`
	Seed       uint64 `json:"seed"`
	Time       string `json:"time"`
}

func provenance(cfg Config) Provenance {
	p := Provenance{
		Revision: "unknown", Modified: "unknown",
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GOGC: -1, Seed: cfg.Seed, Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.GOGC = int64(s[0].Value.Uint64())
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
