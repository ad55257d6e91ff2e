package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// Multiplier is a reusable masked-SpGEMM execution for repeated
// products with the same operands and configuration — the paper's own
// measurement loop ("run for 5 seconds or 10000 iterations") and
// iterative algorithms over a fixed graph both re-execute one multiply
// many times. Construction resolves the structural plan once (through
// the engine's plan cache when cfg.Engine is set); Multiply reuses it,
// so only the result matrix is freshly allocated per call.
//
// Concurrency depends on the configuration's Engine:
//
//   - With an Engine, every Multiply checks a private workspace out of
//     the shared pool, so concurrent Multiply calls on one Multiplier
//     (and across Multipliers sharing the engine) are safe.
//   - Without an Engine the Multiplier owns a single workspace;
//     overlapping Multiply calls are detected atomically and rejected
//     with ErrConcurrentMultiply instead of racing.
//
// The operand matrices must not be mutated while the Multiplier is in
// use.
type Multiplier[T sparse.Number, S semiring.Semiring[T]] struct {
	sr          S
	m, a, b     *sparse.CSR[T]
	cfg         Config
	tiles       []tiling.Tile
	rowCap      int64
	workers     int
	planWorkers int
	// ws is the owned workspace of the engineless path, guarded by
	// inUse; both stay nil/idle when cfg.Engine is set.
	ws    *exec.Workspace[T, S]
	inUse atomic.Bool
	// kappaBits, when nonzero, overrides cfg.Kappa for subsequent runs
	// (math.Float64bits encoding). The override is read once per Multiply
	// into that run's private Config copy, so online recalibration can
	// retune κ between runs without racing in-flight multiplies.
	kappaBits atomic.Uint64
	// lastRun holds the most recent completed run's scoped stats
	// snapshot (nil until a run completes with a recorder configured).
	lastRun atomic.Pointer[obs.Stats]
}

// NewMultiplier validates the problem and resolves the execution plan.
func NewMultiplier[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
) (*Multiplier[T, S], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.Cols != b.Rows || m.Rows != a.Rows || m.Cols != b.Cols {
		return nil, fmt.Errorf("%w: M %dx%d, A %dx%d, B %dx%d",
			sparse.ErrShape, m.Rows, m.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	ctx := cfg.Context
	// Small plans run serially below the parallel cutoffs, so check the
	// context once up front rather than relying on the scheduler's check.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, wrapRunErr(err)
		}
	}
	mu := &Multiplier[T, S]{sr: sr, m: m, a: a, b: b, cfg: cfg}
	mu.workers = sched.Workers(cfg.Workers)
	mu.planWorkers = cfg.planWorkers()
	if a.Rows > 0 {
		// Plan construction records its spans under a scope of its own,
		// folded into the recorder's totals without counting as a run.
		scope := cfg.Recorder.StartRun()
		plan, err := planFor(ctx, cfg, mu.planWorkers, m, a, b, scope)
		scope.End()
		if err != nil {
			return nil, wrapRunErr(err)
		}
		mu.tiles = plan.Tiles
		mu.rowCap = plan.RowCap
	}
	if cfg.Engine == nil {
		// Engineless: construct the owned workspace once, up front, so
		// Multiply is allocation-free in steady state.
		mu.ws = exec.Masked[T, S](nil, sr, cfg.Accumulator, cfg.MarkerBits,
			b.Cols, mu.rowCap, mu.workers, len(mu.tiles))
	}
	return mu, nil
}

// Tiles returns the number of tiles in the plan.
func (mu *Multiplier[T, S]) Tiles() int { return len(mu.tiles) }

// Multiply executes the plan and returns a freshly assembled result,
// under the Config's Context (nil = run to completion).
func (mu *Multiplier[T, S]) Multiply() (*sparse.CSR[T], error) {
	return mu.MultiplyCtx(mu.cfg.Context)
}

// MultiplyCtx is Multiply under an explicit context, overriding the
// Config's. A cancelled or panicked run returns ErrCanceled/ErrPanic
// and leaves the plan intact: tiling, accumulators and output buffers
// all remain valid, so a later Multiply call reuses them as if the
// failed run had never happened. nil falls back to the Config's
// Context.
func (mu *Multiplier[T, S]) MultiplyCtx(ctx context.Context) (*sparse.CSR[T], error) {
	return mu.MultiplyDegraded(ctx, DegradeNone)
}

// MultiplyDegraded is MultiplyCtx on an explicitly degraded execution
// path — the retry layer's ladder after a transient failure. The plan
// (tiling, row capacity) is reused unchanged on every rung; only the
// execution strategy narrows. See Degradation for the rungs.
func (mu *Multiplier[T, S]) MultiplyDegraded(ctx context.Context, d Degradation) (*sparse.CSR[T], error) {
	if ctx == nil {
		ctx = mu.cfg.Context
	}
	if mu.a.Rows == 0 {
		return sparse.NewCSR[T](mu.a.Rows, mu.b.Cols, 0), nil
	}
	// The run owns a private Config copy so the κ override, the
	// degradation rung, and any future per-run retuning never race a
	// concurrent Multiply. Built in one assignment and never mutated
	// after, so the tile closure below captures it by value (one heap
	// object instead of a closure plus an escaping copy).
	cfg, workers, pw := mu.runConfig(d)
	scope := cfg.Recorder.StartRun()
	defer func() {
		if snap := scope.End(); snap.Runs > 0 {
			mu.lastRun.Store(&snap)
		}
	}()
	poolPrior := cfg.Engine.Stats()
	// clean flips only on the fully-successful exit; the acquisition
	// branches below hang their failure handling (quarantine, owned-
	// workspace rebuild) off it so error returns and panic unwinding
	// take the same path.
	clean := false
	var ws *exec.Workspace[T, S]
	switch {
	case cfg.Engine != nil:
		ws = exec.Masked[T, S](cfg.Engine, mu.sr, cfg.Accumulator,
			cfg.MarkerBits, mu.b.Cols, mu.rowCap, workers, len(mu.tiles))
		defer func() {
			if !clean {
				ws.Poison()
			}
			ws.Release()
		}()
	case mu.ws != nil && d < DegradeUnpooled:
		if !mu.inUse.CompareAndSwap(false, true) {
			return nil, fmt.Errorf("%w (give the Multiplier an exec.Engine for concurrent serving)",
				ErrConcurrentMultiply)
		}
		defer mu.inUse.Store(false)
		ws = mu.ws
		// The owned workspace has no pool to quarantine into; a failed
		// run rebuilds it fresh (at full width, for future undegraded
		// runs) so the next Multiply starts from pristine state. Runs
		// while inUse is still held, so no concurrent run sees the swap.
		defer func() {
			if !clean {
				mu.ws = exec.Masked[T, S](nil, mu.sr, mu.cfg.Accumulator,
					mu.cfg.MarkerBits, mu.b.Cols, mu.rowCap, mu.workers, len(mu.tiles))
			}
		}()
	default:
		// DegradeUnpooled with no engine of record: a fresh one-shot
		// workspace, discarded after the run.
		ws = exec.Masked[T, S](nil, mu.sr, cfg.Accumulator,
			cfg.MarkerBits, mu.b.Cols, mu.rowCap, workers, len(mu.tiles))
	}
	accs := ws.Accs[:workers]
	if cfg.Resilience != nil {
		defer armAccumChaos(cfg, accs)()
	}
	outs := ws.Outs[:len(mu.tiles)]
	// The accumulators persist across runs, so deltas against a per-run
	// snapshot keep each run's counts exact.
	prior := snapshotAccumStats(accs, scope)
	if err := runKernelSpanned(ctx, cfg, scope, workers, len(mu.tiles), func(worker, t int, wc *obs.WorkerCounters) {
		runTile(mu.sr, accs[worker], mu.m, mu.a, mu.b, cfg, mu.tiles[t], &outs[t], wc)
	}); err != nil {
		return nil, wrapRunErr(err)
	}
	c, err := assembleSpanned(ctx, cfg, scope, mu.a.Rows, mu.b.Cols, mu.tiles, outs, pw)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	recordAccumDeltas(accs, prior, scope)
	recordPoolDelta(cfg, poolPrior, scope)
	clean = true
	return c, nil
}

// runConfig assembles one run's private Config — the κ override and the
// degradation rung applied — plus the effective worker counts. Kept
// write-free at the call site so the run's tile closure can capture the
// copy by value.
func (mu *Multiplier[T, S]) runConfig(d Degradation) (cfg Config, workers, pw int) {
	cfg = mu.cfg
	if bits := mu.kappaBits.Load(); bits != 0 {
		cfg.Kappa = math.Float64frombits(bits)
	}
	workers, pw = mu.workers, mu.planWorkers
	if d >= DegradeSerial {
		cfg.Workers, cfg.PlanWorkers, cfg.Schedule = 1, 1, sched.Static
		workers, pw = 1, 1
	}
	if d >= DegradeUnpooled {
		cfg.Engine = nil
	}
	return cfg, workers, pw
}

// SetKappa overrides the configured Eq. 3 threshold κ for subsequent
// Multiply calls. Non-positive values restore the constructed Config's
// κ. Safe to call concurrently with in-flight multiplies: each run
// reads the override once at start.
func (mu *Multiplier[T, S]) SetKappa(kappa float64) {
	if kappa <= 0 {
		mu.kappaBits.Store(0)
		return
	}
	mu.kappaBits.Store(math.Float64bits(kappa))
}

// Kappa returns the Eq. 3 threshold the next Multiply will use: the
// SetKappa override when present, the constructed Config's otherwise.
func (mu *Multiplier[T, S]) Kappa() float64 {
	if bits := mu.kappaBits.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return mu.cfg.Kappa
}

// LastRunStats returns the scoped stats snapshot of the most recent
// completed Multiply (isolated by its multiply sequence id, so
// overlapping runs on a shared recorder do not bleed in). ok is false
// until a run completes with a recorder configured.
func (mu *Multiplier[T, S]) LastRunStats() (obs.Stats, bool) {
	if s := mu.lastRun.Load(); s != nil {
		return *s, true
	}
	return obs.Stats{}, false
}

// runTilePlanned is the buffer-reusing tile body: out's staging slices
// are truncated or grown in place, never discarded. wc, when non-nil,
// accumulates the tile's rows, FLOPs, hybrid picks and gathered entries
// into the worker's counter block.
//
//spgemm:hotpath
func runTilePlanned[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T],
	m, a, b *sparse.CSR[T], cfg Config, tile tiling.Tile, out *exec.TileBuf[T],
	wc *obs.WorkerCounters,
) {
	if cap(out.RowNNZ) < tile.Rows() {
		out.RowNNZ = make([]int32, tile.Rows()) //lint:ignore hotpathalloc amortized: grows once per tile-height high-water mark
	}
	out.RowNNZ = out.RowNNZ[:tile.Rows()]
	inj := cfg.chaosInjector()
	for i := tile.Lo; i < tile.Hi; i++ {
		if inj != nil {
			// RowKernel seam: panics here exercise mid-tile unwinding with
			// the accumulator in an arbitrary intermediate state.
			//lint:ignore hotpathalloc allocates only when a fault fires, and the run dies with it
			chaos.StepHard(inj, chaos.RowKernel)
		}
		maskCols := m.RowCols(i)
		before := len(out.Cols)
		if len(maskCols) > 0 || cfg.Iteration == Vanilla {
			switch cfg.Iteration {
			case Vanilla:
				rowVanilla(acc, a, b, i, wc)
			case MaskLoad:
				rowMaskLoad(acc, a, b, i, maskCols, wc)
			case CoIter:
				rowCoIter(sr, acc, a, b, i, maskCols, wc)
			case Hybrid:
				rowHybrid(sr, acc, a, b, i, maskCols, cfg.Kappa, wc)
			}
			out.Cols, out.Vals = acc.Gather(maskCols, out.Cols, out.Vals)
		}
		out.RowNNZ[i-tile.Lo] = int32(len(out.Cols) - before)
	}
	if wc != nil {
		wc.Rows.Add(int64(tile.Rows()))
		// out.Cols starts empty in both entry paths, so its final length
		// is exactly this tile's emitted entry count.
		wc.Gathered.Add(int64(len(out.Cols)))
	}
}
