package spgemm

import (
	"fmt"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Triangle selects which triangle of the operand a triangular solve
// reads: TriLower is forward substitution, TriUpper backward.
type Triangle int

const (
	// TriLower solves with the lower triangle (forward substitution).
	TriLower Triangle = iota
	// TriUpper solves with the upper triangle (backward substitution).
	TriUpper
)

// LevelSchedule selects how a triangular solve is executed — see
// Options.LevelSchedule.
type LevelSchedule int

const (
	// LevelAuto extracts cheap structural features (row work, banded
	// fraction) and picks waves or serial at execution time — the tuning
	// the paper's conclusion calls for, applied to SpTRSV. The
	// prediction is made once per (operand, triangle, mask, workers) on
	// an engine and per call without one.
	LevelAuto LevelSchedule = iota
	// LevelWaves forces the dependency-wave schedule: level sets
	// coarsened into FLOP-balanced tile waves, executed by the
	// persistent worker pool with barriers between waves.
	LevelWaves
	// LevelSerial forces the single-worker substitution loop.
	LevelSerial
)

// TRSV solves op(L)·x = b by sparse triangular solve and returns x.
// l must be square with the selected triangle populated (a structurally
// missing or numerically zero diagonal returns ErrSingular; an entry on
// the wrong side of the diagonal returns ErrNotTriangular). The
// dependency-wave schedule is bit-identical to serial substitution —
// each row is summed in CSR order by exactly one worker — so results do
// not vary with Workers or Schedule.
//
// The level-set plan is cached on opts.Engine keyed by the operand's
// structure, and under LevelAuto so is the knob prediction (per
// operand, triangle, mask and worker count), so iterative solves
// against a fixed matrix plan and predict once. A warm engine-backed
// solve allocates the returned vector and, when masked, one copy of the
// mask; a solve that runs serially allocates nothing else, while a wave
// run adds the worker pool's per-run start-up state (goroutines and the
// wave barrier).
func TRSV(l *Matrix, b []float64, tri Triangle, opts Options) ([]float64, error) {
	return TRSVMasked(l, b, tri, nil, opts)
}

// TRSVMasked is TRSV restricted to a structural row mask (sorted,
// duplicate-free row indices): the solve runs on the principal
// submatrix l[mask, mask] — the masked SpTRSV analogue of the package's
// masked products — and rows outside the mask pass b through unchanged.
// A nil (or empty) mask solves every row.
func TRSVMasked(l *Matrix, b []float64, tri Triangle, mask []int32, opts Options) (_ []float64, err error) {
	defer recoverAsError(&err)
	if opts.ValidateInputs {
		if err := validateInputs(opts.planP(), namedOperand{"l", l}); err != nil {
			return nil, err
		}
	}
	cfg := opts.config()
	so, err := opts.solveOpts(l.csr, tri, mask)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := core.SolveTriInto[float64, semiring.PlusTimes[float64]](
		semiring.PlusTimes[float64]{}, x, l.csr, b, cfg, so); err != nil {
		return nil, err
	}
	return x, nil
}

// solveOpts translates the facade surface to core.SolveOpts: the
// triangle, the mask (rewrapped to the internal index type), and —
// under LevelAuto — the model layer's execution-time knob prediction
// (wave grain from the row-work distribution, serial crossover raised
// for chain-dominated banded systems).
func (o Options) solveOpts(l *sparse.CSR[float64], tri Triangle, mask []int32) (core.SolveOpts, error) {
	so := core.SolveOpts{}
	switch tri {
	case TriLower:
		so.Tri = core.Lower
	case TriUpper:
		so.Tri = core.Upper
	default:
		return so, fmt.Errorf("%w: unknown triangle %d", ErrConfig, tri)
	}
	if len(mask) > 0 {
		idx := make([]sparse.Index, len(mask))
		for i, r := range mask {
			idx[i] = sparse.Index(r)
		}
		so.Mask = idx
	}
	switch o.LevelSchedule {
	case LevelWaves:
		so.Mode = core.SolveWaves
	case LevelSerial:
		so.Mode = core.SolveSerial
	case LevelAuto:
		so.Mode = core.SolveAuto
		k := o.predictKnobs(l, so)
		so.WaveGrain = k.WaveGrain
		so.MergeBelow = k.MergeBelow
		so.SerialBelow = k.SerialBelow
	default:
		return so, fmt.Errorf("%w: unknown level schedule %d", ErrConfig, o.LevelSchedule)
	}
	return so, nil
}

// predictKnobs returns the model layer's knob prediction for solving
// with l under so, memoized in the engine's plan cache so that warm
// solves skip the O(nnz) feature pass: a hit costs one plan lookup and
// allocates nothing. PredictSolve derives MergeBelow from the worker
// count, so the key carries the resolved count. A nil engine, a
// disabled plan cache or a failed plan store predicts per call.
func (o Options) predictKnobs(l *sparse.CSR[float64], so core.SolveOpts) exec.SolveKnobs {
	eng := o.Engine.internal()
	workers := sched.Workers(o.Workers)
	key := core.KnobsKey(l, so, workers)
	if p, ok := eng.PlanLookup(key); ok {
		return *p.Knobs
	}
	p, _ := eng.Plan(key, func() (exec.Plan, error) {
		f := model.ExtractSolve(l, so.Mask)
		pred, _ := model.PredictSolve(f, model.DefaultSolveThresholds(), workers)
		return exec.Plan{Knobs: &exec.SolveKnobs{
			WaveGrain:   pred.WaveGrain,
			MergeBelow:  pred.MergeBelow,
			SerialBelow: pred.SerialBelow,
		}}, nil
	})
	return *p.Knobs
}
