package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"maskedspgemm/spgemm"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	// seconds is how long the run measures.
	seconds float64
	trace   bool
	// shift shrinks every generated graph (0 is benchmark scale; the
	// smoke test uses a larger one).
	shift int
	// minCalls is the fewest timed calls a run makes, even past its
	// seconds: enough that ten samples lie beyond p90.
	minCalls int
	// The workload is set up at least setupReps times and until
	// minSetup has passed, so cheap set-ups get more repetitions;
	// setup_s is the median and the last instance is measured.
	setupReps int
	minSetup  time.Duration
}

func defaultConfig() config {
	return config{seconds: 40, minCalls: 100, setupReps: 5, minSetup: 2 * time.Second}
}

// maxSetupReps caps the set-up repetitions however cheap they are.
const maxSetupReps = 50

// maxMeasure caps a run's timed loop however slow the calls are, so a
// run always ends well within its time limit.
const maxMeasure = 120 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the two tables below are the
// benchmark's vocabulary and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "bytes"},
	{"retained_heap_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"tiling.row_work_ms", "ms"},
	{"tiling.prefix_sum_ms", "ms"},
	{"tiling.tile_build_ms", "ms"},
	{"tiling.row_cap_ms", "ms"},
	{"tiling.tile_imbalance", "ratio"},
	{"exec.checkout_us", "us"},
	{"exec.checkout_warm_us", "us"},
	{"exec.pool_hit_ratio", "ratio"},
	{"exec.plan_hit_ratio", "ratio"},
	{"exec.pool_resizes_per_op", "count"},
	{"sched.claim_ns_per_tile", "ns"},
	{"sched.barrier_ns", "ns"},
	{"sched.waves_per_op", "count"},
	{"sched.barriers_per_op", "count"},
	{"sched.barrier_wait_share", "ratio"},
	{"sched.worker_flop_imbalance", "ratio"},
	{"sched.speedup_vs_1w", "ratio"},
	{"core.plan_ms", "ms"},
	{"core.multiply_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.kernel_ms", "ms"},
	{"core.flops_per_op", "count"},
	{"core.mflops_per_s", "Mflop/s"},
	{"core.coiter_pick_ratio", "ratio"},
	{"core.gathered_per_op", "count"},
	{"core.levels_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"accum.probes_per_flop", "ratio"},
	{"accum.collision_ratio", "ratio"},
	{"accum.marker_clears_per_op", "count"},
	{"accum.grows_per_op", "count"},
	{"model.extract_solve_ms", "ms"},
	{"graph.rounds_per_op", "count"},
	{"graph.self_ms", "ms"},
	{"spgemm.facade_overhead_us", "us"},
	{"spgemm.retries_per_op", "count"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// metrics collects values by name; emit attaches the units.
type metrics map[string]float64

func (m metrics) emit(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// tally counts operations attempted and failed. A failed operation
// returned an error or a result whose checksum differs from the
// reference.
type tally struct{ attempted, failed int64 }

// do makes one checked call and returns its duration; only the facade
// call itself is timed.
func (t *tally) do(inst *instance, o spgemm.Options) time.Duration {
	t0 := time.Now()
	err := inst.call(o)
	d := time.Since(t0)
	t.attempted++
	if !inst.check() || err != nil {
		t.failed++
	}
	return d
}

// setUp runs the workload's set-up repeatedly and returns the last
// instance with every set-up's wall time: input generation, facade
// matrix construction, engine creation, the reference result and two
// warm-up calls.
func setUp(w workload, cfg config, t *tally) (*instance, []float64, error) {
	var inst *instance
	var times []float64
	for start := time.Now(); len(times) < cfg.setupReps ||
		(time.Since(start) < cfg.minSetup && len(times) < maxSetupReps); {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg.seed, cfg.shift)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		for k := 0; k < 2; k++ {
			t.do(inst, inst.opts)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// timedRun is the closed-loop measurement: one caller, each call
// starting when the previous one returned.
type timedRun struct {
	calls               []call
	mallocs, allocBytes uint64
}

type call struct {
	d  time.Duration
	ok bool
}

func measure(inst *instance, cfg config, t *tally) timedRun {
	run := timedRun{calls: make([]call, 0, 1<<16)}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	length := time.Duration(cfg.seconds * float64(time.Second))
	for {
		failed := t.failed
		d := t.do(inst, inst.opts)
		run.calls = append(run.calls, call{d, t.failed == failed})
		elapsed := time.Since(start)
		if (elapsed >= length && len(run.calls) >= cfg.minCalls) || elapsed >= maxMeasure {
			break
		}
	}
	runtime.ReadMemStats(&after)
	run.mallocs = after.Mallocs - before.Mallocs
	run.allocBytes = after.TotalAlloc - before.TotalAlloc
	return run
}

// A window is a stretch of consecutive timed calls that together spent
// at least windowBusy inside the facade and number at least windowCalls.
// The timing metrics are medians over a run's windows of each window's
// own figure. The host is shared and its speed moves in spells of a few
// seconds; a spell that covers a few windows moves the median little,
// while a figure over all calls at once follows the share of the run
// that fell into slow spells. A trailing part window is dropped unless
// the run has no full one.
const (
	windowBusy  = 2 * time.Second
	windowCalls = 10
)

func windows(calls []call) [][]call {
	var out [][]call
	var busy time.Duration
	first := 0
	for i, c := range calls {
		busy += c.d
		if busy >= windowBusy && i+1-first >= windowCalls {
			out = append(out, calls[first:i+1])
			first, busy = i+1, 0
		}
	}
	if len(out) == 0 {
		out = append(out, calls)
	}
	return out
}

// endToEndMetrics turns a timed run into the end-to-end metrics and
// returns them with the number of windows: per window, completed calls
// per second of time spent in calls and the nearest-rank latency
// percentiles; each timing metric is the median over the windows.
func endToEndMetrics(run timedRun, setup []float64) (metrics, int) {
	ws := windows(run.calls)
	var rate, p50, p90 []float64
	for _, w := range ws {
		lat := make([]time.Duration, len(w))
		var busy time.Duration
		done := 0
		for i, c := range w {
			lat[i] = c.d
			busy += c.d
			if c.ok {
				done++
			}
		}
		slices.Sort(lat)
		rate = append(rate, float64(done)/busy.Seconds())
		p50 = append(p50, ms(quantile(lat, 0.5)))
		p90 = append(p90, ms(quantile(lat, 0.9)))
	}
	calls := float64(len(run.calls))
	return metrics{
		"ops_per_s":          median(rate),
		"op_ms_p50":          median(p50),
		"op_ms_p90":          median(p90),
		"allocs_per_op":      float64(run.mallocs) / calls,
		"alloc_bytes_per_op": float64(run.allocBytes) / calls,
		"setup_s":            median(setup),
	}, len(ws)
}

// retainedHeapMiB is the heap still in use after a forced collection:
// the inputs plus whatever the engine keeps pooled.
func retainedHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
