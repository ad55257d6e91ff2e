// Command perfbench is the repository's benchmark. It runs one named
// workload through the public spgemm facade, checks every result
// against a reference computed with an independent configuration, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as JSON.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tc-social-warm --seed 1 --seconds 40 --trace 0
//
// Standard output carries two JSON lines: the full bench/v2 record
// (inputs, host, samples, metrics) and, last, the summary
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// traceDir receives each traced run's spans, inside the build directory.
const traceDir = ".bench_build/traces"

// recordSchema names the layout of the full record line.
const recordSchema = "maskedspgemm/bench/v2"

// record is one run's full result.
type record struct {
	Schema   string    `json:"schema"`
	Workload string    `json:"workload"`
	Why      string    `json:"why"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	Seconds  float64   `json:"seconds"`
	Inputs   []operand `json:"inputs"`
	Host     host      `json:"host"`
	Samples  samples   `json:"samples"`
	// ErrorRate is failed ÷ attempted over every facade call of the run.
	ErrorRate float64 `json:"error_rate"`
	// Counts and Layers are the traced run's deterministic counts and
	// per-span-name self times.
	Counts  *counts           `json:"counts,omitempty"`
	Layers  []layerTime       `json:"layers,omitempty"`
	Metrics map[string]metric `json:"metrics"`
}

type samples struct {
	// Calls is the number of timed calls the metrics rest on: facade
	// operations in the timed loop, or spans in a traced run.
	Calls int `json:"calls"`
	// Windows is the number of windows the timing metrics are medians
	// over (see windowBusy).
	Windows   int   `json:"windows,omitempty"`
	SetupReps int   `json:"setup_reps"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// summary is the last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload and returns its record; tr receives the
// traced run's spans.
func bench(cfg config, tr *tracer) (*record, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var t tally
	inst, setup, err := setUp(w, cfg, &t)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Schema: recordSchema, Workload: w.name, Why: w.why, Seed: cfg.seed,
		Trace: cfg.trace, Seconds: cfg.seconds, Inputs: inst.inputs,
	}
	var m metrics
	if cfg.trace {
		var c counts
		m, c, err = tracedRun(inst, cfg, &t, tr)
		if err != nil {
			return nil, err
		}
		rec.Counts, rec.Layers = &c, tr.selfTimes()
		rec.Samples.Calls = len(tr.spans)
		rec.Metrics, err = m.emit(perLayer)
	} else {
		run := measure(inst, cfg, &t)
		m, rec.Samples.Windows = endToEndMetrics(run, setup)
		rec.Samples.Calls = len(run.calls)
		run.calls = nil
		m["retained_heap_mb"] = retainedHeapMiB()
		runtime.KeepAlive(inst)
		rec.Metrics, err = m.emit(endToEnd)
	}
	if err != nil {
		return nil, err
	}
	rec.Samples.SetupReps = len(setup)
	rec.Samples.Attempted, rec.Samples.Failed = t.attempted, t.failed
	rec.ErrorRate = float64(t.failed) / float64(t.attempted)
	return rec, nil
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "seconds one run measures")
	traceFlag := flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}

	tr := newTracer()
	rec, err := bench(cfg, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Host = hostInfo(".")
	if cfg.trace {
		name := fmt.Sprintf("%s-seed%d-%d.json", cfg.workload, cfg.seed, time.Now().Unix())
		if err := tr.write(traceDir, name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(summary{
		Correct:   rec.Samples.Failed == 0,
		Attempted: rec.Samples.Attempted,
		Failed:    rec.Samples.Failed,
		Metrics:   rec.Metrics,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
