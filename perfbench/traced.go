package main

import (
	"fmt"
	"slices"
	"time"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
	"maskedspgemm/spgemm"
)

// counts are the deterministic quantities of one traced run: the same
// seed must reproduce them exactly.
type counts struct {
	// Flops, Probes, Tiles, Waves, Barriers and Rounds are one
	// operation's Eq. 2 flops, hash probes, executed tiles, executed
	// waves, barrier arrivals and kernel runs, from its stats/v1 delta.
	Flops    int64 `json:"flops"`
	Probes   int64 `json:"probes"`
	Tiles    int64 `json:"tiles"`
	Waves    int64 `json:"waves"`
	Barriers int64 `json:"barriers"`
	Rounds   int64 `json:"rounds"`
	// ProbeTiles and ProbeFlops are the product probe's tile count and
	// flops; ProbeWaves the waves of the probe solves.
	ProbeTiles int   `json:"probe_tiles"`
	ProbeFlops int64 `json:"probe_flops"`
	ProbeWaves int64 `json:"probe_waves"`
}

// probeReps bounds how often each probe repeats: at least minProbeReps
// (for a median), at most maxProbeReps, otherwise until its share of the
// probe budget is spent.
const (
	minProbeReps = 3
	maxProbeReps = 200
)

// more reports whether a probe that has run n times since start, with
// budget d, repeats again.
func more(n int, start time.Time, d time.Duration) bool {
	return n < minProbeReps || (n < maxProbeReps && time.Since(start) < d)
}

// repeat runs fn under a fresh child span of parent until the budget is
// spent, within the rep bounds, and returns the span durations.
func (t *tracer) repeat(name string, parent int, d time.Duration, fn func(id int)) []time.Duration {
	var out []time.Duration
	for start := time.Now(); more(len(out), start, d); {
		id := t.child(name, parent)
		fn(id)
		out = append(out, t.close(id))
	}
	return out
}

// tracedRun measures the per-layer metrics. It first runs the facade
// call alternately untraced and traced (a StatsRecorder attached, every
// call under a span) to read the stats/v1 counters per operation and the
// tracing overhead, then probes each layer's public functions on the
// workload's own inputs.
func tracedRun(inst *instance, cfg config, t *tally, tr *tracer) (metrics, counts, error) {
	// Half the run goes to the facade loop, half to the layer probes.
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	m := metrics{}
	var c counts

	// Facade loop: untraced and traced calls alternate, so both see the
	// same host conditions and their ratio is the tracing overhead.
	rec := spgemm.NewStatsRecorder()
	o := inst.opts
	o.Stats = rec
	var plain, traced time.Duration
	var selfMs, imbalance []float64
	for start := time.Now(); len(selfMs) < minProbeReps || time.Since(start) < half; {
		plain += t.do(inst, inst.opts)
		before := rec.Stats()
		id := tr.root(inst.op)
		dt := t.do(inst, o)
		traced += dt
		tr.end(id, dt)
		d := rec.Stats().Sub(before)
		tr.count(id, d)
		selfMs = append(selfMs, tr.spans[id].self()/1000)
		imbalance = append(imbalance, d.FlopDist.Imbalance)
		if len(selfMs) == 1 {
			c.Flops, c.Probes, c.Tiles = d.Totals.Flops, d.Accum.HashProbes, d.Totals.Tiles
			c.Waves, c.Barriers, c.Rounds = d.Sched.Waves, d.Sched.Barriers, d.Runs
		}
	}
	total := rec.Stats()
	ops := float64(len(selfMs))
	m["obs.trace_overhead_ratio"] = plain.Seconds() / traced.Seconds()
	m["graph.self_ms"] = mean(selfMs)
	m["graph.rounds_per_op"] = float64(total.Runs) / ops
	m["sched.worker_flop_imbalance"] = median(imbalance)
	m["sched.waves_per_op"] = float64(total.Sched.Waves) / ops
	m["sched.barriers_per_op"] = float64(total.Sched.Barriers) / ops
	m["sched.barrier_wait_share"] = barrierWaitShare(total)
	p := total.Pool
	m["exec.pool_hit_ratio"] = ratio(p.Hits, p.Hits+p.Steals+p.Misses)
	m["exec.plan_hit_ratio"] = ratio(p.PlanHits, p.PlanHits+p.PlanMisses)
	m["exec.pool_resizes_per_op"] = float64(p.Resizes) / ops
	tot := total.Totals
	m["core.flops_per_op"] = float64(tot.Flops) / ops
	m["core.coiter_pick_ratio"] = ratio(tot.CoIterPicks, tot.CoIterPicks+tot.LinearPicks)
	m["core.gathered_per_op"] = float64(tot.Gathered) / ops
	a := total.Accum
	m["accum.probes_per_flop"] = ratio(a.HashProbes, tot.Flops)
	m["accum.collision_ratio"] = ratio(a.HashCollisions, a.HashProbes)
	m["accum.marker_clears_per_op"] = float64(a.MarkerClears) / ops
	m["accum.grows_per_op"] = float64(a.TableGrows) / ops
	m["spgemm.retries_per_op"] = float64(total.Retry.Retries) / ops

	// Layer probes: a third of their half each for the single-worker
	// baseline, the product layers and the triangular solve.
	share := half / 3
	speedupProbe(inst, t, tr, share, m)
	var err error
	if inst.probe.pair {
		err = productProbes(semiring.PlusPair[float64]{}, spgemm.SRPlusPair, inst.probe.graph, tr, share, m, &c)
	} else {
		err = productProbes(semiring.PlusTimes[float64]{}, spgemm.SRPlusTimes, inst.probe.graph, tr, share, m, &c)
	}
	if err != nil {
		return nil, c, err
	}
	if err := solveProbes(inst.probe, cfg.seed, tr, share, m, &c); err != nil {
		return nil, c, err
	}
	return m, c, nil
}

// speedupProbe times the workload's own facade call at Workers=1 (the
// single-thread baseline) against the configured worker count,
// alternating the two. Each span ends when the call returns, before the
// result is checked.
func speedupProbe(inst *instance, t *tally, tr *tracer, d time.Duration, m metrics) {
	root := tr.root("probe.speedup")
	one := inst.opts
	one.Workers = 1
	var serial, parallel []float64
	for start := time.Now(); more(len(serial), start, d); {
		id := tr.child(inst.op+" workers=1", root)
		serial = append(serial, ms(tr.end(id, t.do(inst, one))))
		id = tr.child(inst.op+" workers=default", root)
		parallel = append(parallel, ms(tr.end(id, t.do(inst, inst.opts))))
	}
	tr.close(root)
	m["sched.speedup_vs_1w"] = median(serial) / median(parallel)
}

// productProbes times the masked-product layers on C = G ⊙ (G×G):
// plan construction (with the recorder's tiling phases), the multiply
// (with its kernel and assembly phases), the tile partition's balance,
// workspace checkout with and without an engine, empty tile claims, and
// the facade's own overhead over the core kernel.
func productProbes[S semiring.Semiring[float64]](
	sr S, fsr spgemm.Semiring, g *sparse.CSR[float64], tr *tracer, d time.Duration, m metrics, c *counts,
) error {
	root := tr.root("probe.product")
	defer tr.close(root)
	d /= 5
	rec := obs.NewRecorder()
	cfg := core.DefaultConfig()
	cfg.Recorder = rec
	workers := sched.Workers(cfg.Workers)

	var plan, multiply, rowWork, prefix, tileBuild, rowCap, kernel, assemble []float64
	var flops int64
	var perr error
	var tiles int
	tr.repeat("core.NewMultiplier", root, d, func(id int) {
		before := rec.Stats()
		t0 := time.Now()
		mu, err := core.NewMultiplier(sr, g, g, g, cfg)
		plan = append(plan, ms(time.Since(t0)))
		if err != nil {
			perr = err
			return
		}
		p := rec.Stats().Sub(before)
		tr.count(id, p)
		rowWork = append(rowWork, phaseMs(p, "plan.row_work"))
		prefix = append(prefix, phaseMs(p, "plan.prefix_sum"))
		tileBuild = append(tileBuild, phaseMs(p, "plan.tile_build"))
		rowCap = append(rowCap, phaseMs(p, "plan.row_cap"))
		tiles = mu.Tiles()

		mid := tr.child("core.Multiplier.Multiply", id)
		before = rec.Stats()
		t0 = time.Now()
		_, err = mu.Multiply()
		multiply = append(multiply, ms(time.Since(t0)))
		tr.close(mid)
		if err != nil {
			perr = err
			return
		}
		k := rec.Stats().Sub(before)
		tr.count(mid, k)
		kernel = append(kernel, phaseMs(k, "exec.kernel"))
		assemble = append(assemble, phaseMs(k, "exec.assemble"))
		flops = k.Totals.Flops
	})
	if perr != nil {
		return fmt.Errorf("product probe: %w", perr)
	}
	m["core.plan_ms"] = median(plan)
	m["core.multiply_ms"] = median(multiply)
	m["tiling.row_work_ms"] = median(rowWork)
	m["tiling.prefix_sum_ms"] = median(prefix)
	m["tiling.tile_build_ms"] = median(tileBuild)
	m["tiling.row_cap_ms"] = median(rowCap)
	m["core.kernel_ms"] = median(kernel)
	m["core.assemble_ms"] = median(assemble)
	m["core.mflops_per_s"] = float64(flops) / median(kernel) / 1e3
	c.ProbeTiles, c.ProbeFlops = tiles, flops

	id := tr.child("tiling.Imbalance", root)
	work := tiling.RowWorkParallel(g, g, g, workers)
	m["tiling.tile_imbalance"] = tiling.Imbalance(tiling.BalancedTilesParallel(work, cfg.Tiles, workers), work)
	tr.close(id)

	// The hash accumulator of the masked spaces holds at most one mask
	// row: the plan's row capacity.
	var maxRow int64
	for i := 0; i < g.Rows; i++ {
		maxRow = max(maxRow, g.RowNNZ(i))
	}
	checkout := func(e *exec.Engine) func(int) {
		return func(int) {
			exec.Masked[float64, S](e, sr, accum.HashKind, cfg.MarkerBits, g.Cols, maxRow, workers, tiles).Release()
		}
	}
	m["exec.checkout_us"] = medianUs(tr.repeat("exec.Masked nil-engine", root, d, checkout(nil)))
	warm := exec.New(exec.Config{})
	checkout(warm)(0)
	m["exec.checkout_warm_us"] = medianUs(tr.repeat("exec.Masked warm-engine", root, d, checkout(warm)))

	claims := tr.repeat("sched.RunChunked empty", root, d, func(int) {
		sched.RunChunked(cfg.Schedule, workers, tiles, 1, func(int, int) {})
	})
	m["sched.claim_ns_per_tile"] = float64(medianDur(claims)) / float64(max(tiles, 1))

	// Facade overhead: the self time of spgemm.MxM against that of
	// core.MaskedSpGEMM on the same operands and configuration,
	// alternated. Subtracting the phases each call's recorder counted
	// removes the kernel's own run-to-run noise from the difference.
	fg, err := facade(g)
	if err != nil {
		return err
	}
	frec := spgemm.NewStatsRecorder()
	fo := spgemm.Defaults()
	fo.Semiring, fo.Stats = fsr, frec
	var fself, cself []float64
	for start := time.Now(); more(len(fself), start, d); {
		before := frec.Stats()
		id := tr.child("spgemm.MxM", root)
		_, ferr := spgemm.MxM(fg, fg, fg, fo)
		tr.close(id)
		tr.count(id, frec.Stats().Sub(before))
		fself = append(fself, tr.spans[id].self())

		cbefore := rec.Stats()
		id = tr.child("core.MaskedSpGEMM", root)
		_, cerr := core.MaskedSpGEMM(sr, g, g, g, cfg)
		tr.close(id)
		tr.count(id, rec.Stats().Sub(cbefore))
		cself = append(cself, tr.spans[id].self())
		if ferr != nil || cerr != nil {
			return fmt.Errorf("facade overhead probe: %v, %v", ferr, cerr)
		}
	}
	m["spgemm.facade_overhead_us"] = median(fself) - median(cself)
	return nil
}

// solveProbes times the triangular-solve layers on each of the
// workload's lower-triangular systems (tril(G)+D of the product graph
// when the workload makes no solves of its own): the model's feature
// extraction, the wave-scheduled solve with its level planning, and
// empty-body wave runs of the same shape for the cost of a barrier
// crossing.
func solveProbes(p probeInputs, seed uint64, tr *tracer, d time.Duration, m metrics, c *counts) error {
	root := tr.root("probe.solve")
	defer tr.close(root)
	systems := p.systems
	if systems == nil {
		l := lowerSystem(p.graph)
		systems = []system{{l: l, b: rhs(l.Rows, seed)}}
	}
	d /= time.Duration(3 * len(systems))
	rec := obs.NewRecorder()
	cfg := core.DefaultConfig()
	cfg.Recorder = rec
	workers := sched.Workers(cfg.Workers)
	so := core.SolveOpts{Tri: core.Lower, Mode: core.SolveWaves}
	sr := semiring.PlusTimes[float64]{}

	var extract, levels, solve []float64
	var barrierTime time.Duration
	var crossings int
	for _, s := range systems {
		extract = append(extract, medianMs(tr.repeat("model.ExtractSolve", root, d, func(int) {
			model.ExtractSolve(s.l, nil)
		})))
		dst := make([]float64, s.l.Rows)
		var lv, sv []float64
		var shape obs.SchedCounters
		var serr error
		tr.repeat("core.SolveTriInto waves", root, d, func(id int) {
			before := rec.Stats()
			if err := core.SolveTriInto(sr, dst, s.l, s.b, cfg, so); err != nil {
				serr = err
				return
			}
			st := rec.Stats().Sub(before)
			tr.count(id, st)
			lv = append(lv, phaseMs(st, "plan.levels"))
			sv = append(sv, phaseMs(st, "exec.solve"))
			shape = st.Sched
		})
		if serr != nil {
			return fmt.Errorf("solve probe: %w", serr)
		}
		levels = append(levels, median(lv))
		solve = append(solve, median(sv))
		c.ProbeWaves += shape.Waves

		plan, err := wavePlanOf(shape)
		if err != nil {
			return err
		}
		// A plan no wider than one tile runs on the caller alone and
		// crosses no barrier.
		if n := plan.NumWaves(); n > 1 && min(workers, plan.Widest()) > 1 {
			barrierTime += crossingCost(tr, root, d, cfg.Schedule, workers, plan)
			crossings += n - 1
		}
	}
	if crossings == 0 {
		// No system crossed a barrier: time fallbackWaves waves instead,
		// each wide enough to keep every worker in the pool.
		waves := make([]sched.Wave, fallbackWaves)
		for i := range waves {
			waves[i] = sched.Wave{Lo: i * workers, Hi: (i + 1) * workers}
		}
		plan, err := sched.NewWavePlan(waves)
		if err != nil {
			return err
		}
		barrierTime = crossingCost(tr, root, d, cfg.Schedule, workers, plan)
		crossings = fallbackWaves - 1
	}
	m["model.extract_solve_ms"] = mean(extract)
	m["core.levels_ms"] = mean(levels)
	m["core.solve_ms"] = mean(solve)
	m["sched.barrier_ns"] = float64(barrierTime) / float64(crossings)
	return nil
}

// fallbackWaves is the wave count of the barrier probe's plan when the
// workload's solves cross no barrier.
const fallbackWaves = 64

// crossingCost times empty-body runs of plan against empty-body runs of
// one wave with the same tile count, alternated, and returns the
// difference of their medians. Both runs start and join the worker pool
// and claim every tile, so the difference is the cost of plan's barrier
// crossings alone.
func crossingCost(tr *tracer, root int, d time.Duration, policy sched.Policy, workers int, plan sched.WavePlan) time.Duration {
	flat := sched.SingleWave(plan.Tiles())
	var waves, single []time.Duration
	for start := time.Now(); more(len(waves), start, d); {
		id := tr.child("sched.RunWaves empty", root)
		sched.RunWaves(policy, workers, plan, func(int, int) {})
		waves = append(waves, tr.close(id))
		id = tr.child("sched.RunWaves empty single-wave", root)
		sched.RunWaves(policy, workers, flat, func(int, int) {})
		single = append(single, tr.close(id))
	}
	return medianDur(waves) - medianDur(single)
}

// wavePlanOf rebuilds a solve's wave shape from its stats/v1 histogram
// of tiles per wave: a wave in log2 bucket b (b > 0) had between
// 2^(b-1) and 2^b - 1 tiles and is rebuilt with 2^(b-1).
func wavePlanOf(s obs.SchedCounters) (sched.WavePlan, error) {
	var waves []sched.Wave
	lo := 0
	for b, n := range s.WaveTiles {
		if b == 0 {
			continue
		}
		for ; n > 0; n-- {
			waves = append(waves, sched.Wave{Lo: lo, Hi: lo + 1<<(b-1)})
			lo += 1 << (b - 1)
		}
	}
	return sched.NewWavePlan(waves)
}

// barrierWaitShare is the share of the solves' worker time spent parked
// at wave barriers: barrier wait ÷ (workers × solve time). Runs without
// waves (every masked product, serial solves) have none.
func barrierWaitShare(s obs.Stats) float64 {
	solve := phaseMs(s, "exec.solve") * 1e6
	if solve == 0 {
		return 0
	}
	return float64(s.Sched.BarrierWaitNs) / (solve * float64(sched.Workers(0)))
}

func phaseMs(s obs.Stats, phase string) float64 {
	for _, p := range s.Phases {
		if p.Phase == phase {
			return p.Millis
		}
	}
	return 0
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

func medianMs(ds []time.Duration) float64 { return ms(medianDur(ds)) }

func medianUs(ds []time.Duration) float64 {
	return float64(medianDur(ds)) / float64(time.Microsecond)
}
