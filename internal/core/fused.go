package core

import (
	"fmt"
	"unsafe"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// This file is the fused-multiply pipeline: chained masked products
// executed tile by tile so the first product's output is consumed by
// the second product's row kernel while still cache-hot, staged through
// exec.Workspace tile buffers instead of a fully assembled intermediate
// CSR. Three fusion shapes cover the repo's chained kernels:
//
//   - FusedMaskedSpGEMM: the general two-multiply chain
//     D = M2 ⊙ ((M1 ⊙ (A×B)) × C);
//   - MaskedSpGEMMSelect: multiply plus per-entry keep/rewrite — the
//     k-truss support-and-prune round without the support matrix;
//   - MaskedSpGEMMStream: multiply plus per-row consumption with no
//     assembly at all — the BC backward sweep's accumulation.
//
// The per-tile mode decision is the Eq. 2 fusion cost model: a tile
// whose estimated intermediate footprint (first-stage mask volume ×
// entry size — the same nnz(M) bound that sizes the accumulators) fits
// Config.FuseTileBudget is staged whole, keeping the stage-1 B rows hot
// across the tile; a tile that exceeds the budget streams row at a
// time, bounding the live intermediate to a single row. Both modes
// perform identical per-row arithmetic, so the output is bit-identical
// to materialize-then-multiply.

// FusedPlan is the execution plan of a fused two-multiply chain: the
// tile partition (FLOP-balanced over the first product, which both
// stages share because the second product's row i consumes only
// intermediate row i) plus the per-stage accumulator row-capacity
// bounds.
type FusedPlan struct {
	// Tiles partitions the output rows; both stages use it.
	Tiles []tiling.Tile
	// RowCap1 bounds a stage-1 accumulator row (max nnz of an M1 row;
	// the vanilla flop bound when cfg.Iteration is Vanilla).
	RowCap1 int64
	// RowCap2 bounds a stage-2 accumulator row (max nnz of an M2 row;
	// the stage-2 output column count under Vanilla, since the flop
	// bound of a never-materialized left operand is unknown).
	RowCap2 int64
}

// fusedEntrySize is the staging cost of one intermediate entry: a
// column index plus a value.
func fusedEntrySize[T sparse.Number]() int64 {
	var z T
	var j sparse.Index
	return int64(unsafe.Sizeof(z)) + int64(unsafe.Sizeof(j))
}

// fusedPlanFor resolves the chain's plan through the engine's plan
// cache when available: the stage-1 plan under its natural key, the
// stage-2 row bound under a rowcap-only pseudo key (zero B operand, so
// it can never collide with a real multiply's key).
func fusedPlanFor[T sparse.Number](
	cfg Config, pw int, m1, a, b, m2, c *sparse.CSR[T], scope *obs.RunScope,
) (FusedPlan, error) {
	ctx := cfg.Context
	p1, err := planFor(ctx, cfg, pw, m1, a, b, scope)
	if err != nil {
		return FusedPlan{}, err
	}
	build := func() (exec.Plan, error) {
		defer scope.Span(obs.PhasePlanRowCap)()
		if cfg.Iteration == Vanilla {
			return exec.Plan{RowCap: int64(c.Cols)}, nil
		}
		rc, err := maxRowNNZ(ctx, m2, pw)
		if err != nil {
			return exec.Plan{}, err
		}
		return exec.Plan{RowCap: rc}, nil
	}
	var rowCap2 int64
	if cfg.Engine == nil {
		p2, err := build()
		if err != nil {
			return FusedPlan{}, err
		}
		rowCap2 = p2.RowCap
	} else {
		key := exec.PlanKey{
			M:       exec.IDOf(m2),
			A:       exec.IDOf(c),
			Tiles:   cfg.Tiles,
			Tiling:  cfg.Tiling,
			Vanilla: cfg.Iteration == Vanilla,
		}
		p2, err := cfg.Engine.Plan(key, build)
		if err != nil {
			return FusedPlan{}, err
		}
		rowCap2 = p2.RowCap
	}
	return FusedPlan{Tiles: p1.Tiles, RowCap1: p1.RowCap, RowCap2: rowCap2}, nil
}

// FusedMaskedSpGEMM computes the chained masked product
//
//	D = M2 ⊙ ((M1 ⊙ (A×B)) × C)
//
// without materializing the intermediate I = M1 ⊙ (A×B) as a CSR: each
// tile's intermediate rows live only in workspace staging buffers and
// are consumed by the second multiply while hot. Rows whose M2 row is
// empty skip stage 1 entirely — their intermediate row is dead by
// construction.
//
// Shape requirements: A is m×k, B is k×n, M1 is m×n, C is n×q, M2 is
// m×q. The result is bit-identical to the two-call sequence
// MaskedSpGEMM(sr, M1, A, B) then MaskedSpGEMM(sr, M2, I, C) under the
// same Config.
func FusedMaskedSpGEMM[T sparse.Number, S semiring.Semiring[T]](
	sr S, m1, a, b, m2, c *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.Cols != b.Rows || m1.Rows != a.Rows || m1.Cols != b.Cols ||
		b.Cols != c.Rows || m2.Rows != a.Rows || m2.Cols != c.Cols {
		return nil, fmt.Errorf("%w: M1 %dx%d, A %dx%d, B %dx%d, M2 %dx%d, C %dx%d",
			sparse.ErrShape, m1.Rows, m1.Cols, a.Rows, a.Cols, b.Rows, b.Cols,
			m2.Rows, m2.Cols, c.Rows, c.Cols)
	}
	if a.Rows == 0 {
		return sparse.NewCSR[T](a.Rows, c.Cols, 0), nil
	}

	ctx := cfg.Context
	pw := cfg.planWorkers()
	scope := cfg.Recorder.StartRun()
	defer scope.End()
	poolPrior := cfg.Engine.Stats()
	plan, err := fusedPlanFor(cfg, pw, m1, a, b, m2, c, scope)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	tiles := plan.Tiles
	workers := sched.Workers(cfg.Workers)

	// Two workspaces, one per stage: stage 1's accumulators are sized by
	// (b.Cols, RowCap1) and its per-worker Outs serve as the intermediate
	// staging buffers; stage 2's accumulators are sized by (c.Cols,
	// RowCap2) and its per-tile Outs hold the final output staging.
	ws1 := exec.Masked[T, S](cfg.Engine, sr, cfg.Accumulator, cfg.MarkerBits,
		b.Cols, plan.RowCap1, workers, workers)
	// Poison-on-error (both stages): a failed run may leave either
	// stage's accumulators or staging mid-mutation, so both workspaces
	// are quarantined unless the run reaches its fully-successful exit.
	clean := false
	defer func() {
		if !clean {
			ws1.Poison()
		}
		ws1.Release()
	}()
	ws2 := exec.Masked[T, S](cfg.Engine, sr, cfg.Accumulator, cfg.MarkerBits,
		c.Cols, plan.RowCap2, workers, len(tiles))
	defer func() {
		if !clean {
			ws2.Poison()
		}
		ws2.Release()
	}()
	accs1 := ws1.Accs[:workers]
	accs2 := ws2.Accs[:workers]
	if cfg.Resilience != nil {
		defer armAccumChaos(cfg, accs1)()
		defer armAccumChaos(cfg, accs2)()
	}
	mids := ws1.Outs[:workers]
	outs := ws2.Outs[:len(tiles)]
	prior1 := snapshotAccumStats(accs1, scope)
	prior2 := snapshotAccumStats(accs2, scope)
	fcs := fusedSlots(scope, workers)
	budget := cfg.fuseTileBudget()
	entrySize := fusedEntrySize[T]()

	if err := runKernelSpanned(ctx, cfg, scope, workers, len(tiles), func(worker, t int, wc *obs.WorkerCounters) {
		runTileFused(sr, accs1[worker], accs2[worker], m1, a, b, m2, c, cfg,
			tiles[t], &mids[worker], &outs[t], budget, entrySize, fcSlot(fcs, worker), wc)
	}); err != nil {
		return nil, wrapRunErr(err)
	}

	d, err := assembleSpanned(ctx, cfg, scope, a.Rows, c.Cols, tiles, outs, pw)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	recordAccumDeltas(accs1, prior1, scope)
	recordAccumDeltas(accs2, prior2, scope)
	recordPoolDelta(cfg, poolPrior, scope)
	foldFused(scope, fcs, obs.FusedCounters{ChainRuns: 1})
	clean = true
	return d, nil
}

// fusedSlots returns per-worker fused-counter blocks (nil when the
// scope is disabled, so the uninstrumented path allocates nothing).
func fusedSlots(scope *obs.RunScope, workers int) []obs.FusedCounters {
	if !scope.Enabled() {
		return nil
	}
	return make([]obs.FusedCounters, workers)
}

// fcSlot indexes a worker's counter block, nil-safe.
func fcSlot(fcs []obs.FusedCounters, worker int) *obs.FusedCounters {
	if fcs == nil {
		return nil
	}
	return &fcs[worker]
}

// foldFused sums the per-worker fused counters plus the run marker into
// the scope.
func foldFused(scope *obs.RunScope, fcs []obs.FusedCounters, run obs.FusedCounters) {
	if fcs == nil {
		return
	}
	total := run
	for i := range fcs {
		total.Add(fcs[i])
	}
	scope.AddFused(total)
}

// runTileFused executes both stages of the chain for one tile. Staged
// mode (intermediate footprint within budget) computes every stage-1
// row of the tile into mid, then consumes them in order; streamed mode
// interleaves, keeping only one intermediate row live. mid is a
// per-worker buffer reused across the worker's tiles, so its capacity
// settles at the high-water mark and warm runs allocate nothing.
//
//spgemm:hotpath
func runTileFused[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc1, acc2 accum.Accumulator[T],
	m1, a, b, m2, c *sparse.CSR[T], cfg Config, tile tiling.Tile,
	mid, out *exec.TileBuf[T], budget, entrySize int64,
	fc *obs.FusedCounters, wc *obs.WorkerCounters,
) {
	rows := tile.Rows()
	mask1Vol := m1.RowPtr[tile.Hi] - m1.RowPtr[tile.Lo]
	mask2Vol := m2.RowPtr[tile.Hi] - m2.RowPtr[tile.Lo]
	if cap(out.RowNNZ) < rows {
		out.RowNNZ = make([]int32, rows) //lint:ignore hotpathalloc amortized: grows once per tile-height high-water mark
	}
	out.RowNNZ = out.RowNNZ[:rows]
	if int64(cap(out.Cols)) < mask2Vol || int64(cap(out.Vals)) < mask2Vol {
		//lint:ignore hotpathalloc amortized: first run at this mask volume sizes the staging buffers
		out.Cols = make([]sparse.Index, 0, mask2Vol)
		out.Vals = make([]T, 0, mask2Vol) //lint:ignore hotpathalloc amortized: sized with Cols above
	} else {
		out.Cols = out.Cols[:0]
		out.Vals = out.Vals[:0]
	}

	staged := mask1Vol*entrySize <= budget
	inj := cfg.chaosInjector()
	var midEntries int64
	if staged {
		// Stage 1, whole tile: the intermediate rows land back-to-back in
		// mid, offsets recovered from mid.RowNNZ.
		if cap(mid.RowNNZ) < rows {
			mid.RowNNZ = make([]int32, rows) //lint:ignore hotpathalloc amortized: grows once per tile-height high-water mark
		}
		mid.RowNNZ = mid.RowNNZ[:rows]
		if int64(cap(mid.Cols)) < mask1Vol || int64(cap(mid.Vals)) < mask1Vol {
			//lint:ignore hotpathalloc amortized: first run at this mask volume sizes the intermediate staging
			mid.Cols = make([]sparse.Index, 0, mask1Vol)
			mid.Vals = make([]T, 0, mask1Vol) //lint:ignore hotpathalloc amortized: sized with Cols above
		} else {
			mid.Cols = mid.Cols[:0]
			mid.Vals = mid.Vals[:0]
		}
		for i := tile.Lo; i < tile.Hi; i++ {
			if inj != nil {
				// RowKernel seam, fused formulation: panics here unwind with
				// both accumulators mid-flight.
				//lint:ignore hotpathalloc allocates only when a fault fires, and the run dies with it
				chaos.StepHard(inj, chaos.RowKernel)
			}
			before := len(mid.Cols)
			if m2.RowNNZ(i) > 0 {
				fusedRowStage1(sr, acc1, m1, a, b, cfg, i, mid, wc)
			}
			mid.RowNNZ[i-tile.Lo] = int32(len(mid.Cols) - before)
		}
		midEntries = int64(len(mid.Cols))
		// Stage 2, consuming the still-hot staged rows.
		off := 0
		for i := tile.Lo; i < tile.Hi; i++ {
			n := int(mid.RowNNZ[i-tile.Lo])
			fusedRowStage2(sr, acc2, mid.Cols[off:off+n], mid.Vals[off:off+n],
				c, m2.RowCols(i), cfg, out, i-tile.Lo, wc)
			off += n
		}
	} else {
		// Streamed: one intermediate row live at a time.
		mid.RowNNZ = mid.RowNNZ[:0]
		for i := tile.Lo; i < tile.Hi; i++ {
			if inj != nil {
				//lint:ignore hotpathalloc allocates only when a fault fires, and the run dies with it
				chaos.StepHard(inj, chaos.RowKernel)
			}
			mid.Cols = mid.Cols[:0]
			mid.Vals = mid.Vals[:0]
			if m2.RowNNZ(i) > 0 {
				fusedRowStage1(sr, acc1, m1, a, b, cfg, i, mid, wc)
			}
			midEntries += int64(len(mid.Cols))
			fusedRowStage2(sr, acc2, mid.Cols, mid.Vals,
				c, m2.RowCols(i), cfg, out, i-tile.Lo, wc)
		}
	}
	if wc != nil {
		wc.Rows.Add(int64(rows))
		wc.Gathered.Add(int64(len(out.Cols)))
	}
	if fc != nil {
		if staged {
			fc.StagedTiles++
		} else {
			fc.StreamedTiles++
		}
		fc.MidEntries += midEntries
		fc.MidBytes += midEntries * entrySize
	}
}

// fusedRowStage1 computes intermediate row i = M1[i,:] ⊙ (A[i,:] × B)
// and appends it to mid.
//
//spgemm:hotpath
func fusedRowStage1[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], m1, a, b *sparse.CSR[T], cfg Config, i int,
	mid *exec.TileBuf[T], wc *obs.WorkerCounters,
) {
	maskCols := m1.RowCols(i)
	if len(maskCols) == 0 && cfg.Iteration != Vanilla {
		return
	}
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
	mid.Cols, mid.Vals = acc.Gather(maskCols, mid.Cols, mid.Vals)
}

// fusedRowStage2 multiplies one intermediate row (as slices — it never
// became a CSR) against C under mask row maskCols, gathering into out
// at row index idx.
//
//spgemm:hotpath
func fusedRowStage2[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], iCols []sparse.Index, iVals []T,
	c *sparse.CSR[T], maskCols []sparse.Index, cfg Config,
	out *exec.TileBuf[T], idx int, wc *obs.WorkerCounters,
) {
	before := len(out.Cols)
	if len(iCols) > 0 && (len(maskCols) > 0 || cfg.Iteration == Vanilla) {
		switch cfg.Iteration {
		case Vanilla:
			rowVanillaSlices(acc, iCols, iVals, c, wc)
		case MaskLoad:
			rowMaskLoadSlices(acc, iCols, iVals, c, maskCols, wc)
		case CoIter:
			rowCoIterSlices(sr, acc, iCols, iVals, c, maskCols, wc)
		case Hybrid:
			rowHybridSlices(sr, acc, iCols, iVals, c, maskCols, cfg.Kappa, wc)
		}
		out.Cols, out.Vals = acc.Gather(maskCols, out.Cols, out.Vals)
	}
	out.RowNNZ[idx] = int32(len(out.Cols) - before)
}

// MaskedSpGEMMSelect computes C = select(M ⊙ (A × B)): the masked
// product with a per-entry keep/rewrite decision fused into the tile
// gather, so entries the selector drops are never assembled. sel maps a
// computed value to its stored replacement and whether to keep the
// entry; it must be pure (it may run concurrently from worker
// goroutines and its call order is unspecified).
//
// This is the k-truss round A ⊙ (A×A) → threshold in one pass: the
// support matrix never exists, only the surviving (rewritten) entries
// reach the output CSR.
func MaskedSpGEMMSelect[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config, sel func(T) (T, bool),
) (*sparse.CSR[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sel == nil {
		return nil, errConfig("select fusion needs a non-nil selector")
	}
	if a.Cols != b.Rows || m.Rows != a.Rows || m.Cols != b.Cols {
		return nil, fmt.Errorf("%w: M %dx%d, A %dx%d, B %dx%d",
			sparse.ErrShape, m.Rows, m.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Rows == 0 {
		return sparse.NewCSR[T](a.Rows, b.Cols, 0), nil
	}

	ctx := cfg.Context
	pw := cfg.planWorkers()
	scope := cfg.Recorder.StartRun()
	defer scope.End()
	poolPrior := cfg.Engine.Stats()
	plan, err := planFor(ctx, cfg, pw, m, a, b, scope)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	tiles := plan.Tiles
	workers := sched.Workers(cfg.Workers)

	ws := exec.Masked[T, S](cfg.Engine, sr, cfg.Accumulator, cfg.MarkerBits,
		b.Cols, plan.RowCap, workers, len(tiles))
	// Poison-on-error: quarantine the workspace unless the run reaches
	// its fully-successful exit (see maskedRun).
	clean := false
	defer func() {
		if !clean {
			ws.Poison()
		}
		ws.Release()
	}()
	accs := ws.Accs[:workers]
	if cfg.Resilience != nil {
		defer armAccumChaos(cfg, accs)()
	}
	outs := ws.Outs[:len(tiles)]
	prior := snapshotAccumStats(accs, scope)
	fcs := fusedSlots(scope, workers)

	if err := runKernelSpanned(ctx, cfg, scope, workers, len(tiles), func(worker, t int, wc *obs.WorkerCounters) {
		runTileSelect(sr, accs[worker], m, a, b, cfg, tiles[t], &outs[t], sel, fcSlot(fcs, worker), wc)
	}); err != nil {
		return nil, wrapRunErr(err)
	}

	c, err := assembleSpanned(ctx, cfg, scope, a.Rows, b.Cols, tiles, outs, pw)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	recordAccumDeltas(accs, prior, scope)
	recordPoolDelta(cfg, poolPrior, scope)
	foldFused(scope, fcs, obs.FusedCounters{SelectRuns: 1})
	clean = true
	return c, nil
}

// runTileSelect is runTile with the selector applied to each freshly
// gathered row in place, before the entries ever leave the staging
// buffer.
//
//spgemm:hotpath
func runTileSelect[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T],
	m, a, b *sparse.CSR[T], cfg Config, tile tiling.Tile, out *exec.TileBuf[T],
	sel func(T) (T, bool), fc *obs.FusedCounters, wc *obs.WorkerCounters,
) {
	maskVol := m.RowPtr[tile.Hi] - m.RowPtr[tile.Lo]
	if cap(out.RowNNZ) < tile.Rows() {
		out.RowNNZ = make([]int32, tile.Rows()) //lint:ignore hotpathalloc amortized: grows once per tile-height high-water mark
	}
	out.RowNNZ = out.RowNNZ[:tile.Rows()]
	if int64(cap(out.Cols)) < maskVol || int64(cap(out.Vals)) < maskVol {
		//lint:ignore hotpathalloc amortized: first run at this mask volume sizes the staging buffers
		out.Cols = make([]sparse.Index, 0, maskVol)
		out.Vals = make([]T, 0, maskVol) //lint:ignore hotpathalloc amortized: sized with Cols above
	} else {
		out.Cols = out.Cols[:0]
		out.Vals = out.Vals[:0]
	}
	var kept, dropped int64
	for i := tile.Lo; i < tile.Hi; i++ {
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
		// Compact the row in place through the selector.
		w := before
		for p := before; p < len(out.Cols); p++ {
			if v, ok := sel(out.Vals[p]); ok {
				out.Cols[w] = out.Cols[p]
				out.Vals[w] = v
				w++
			}
		}
		kept += int64(w - before)
		dropped += int64(len(out.Cols) - w)
		out.Cols = out.Cols[:w]
		out.Vals = out.Vals[:w]
		out.RowNNZ[i-tile.Lo] = int32(w - before)
	}
	if wc != nil {
		wc.Rows.Add(int64(tile.Rows()))
		wc.Gathered.Add(int64(len(out.Cols)))
	}
	if fc != nil {
		fc.SelectKept += kept
		fc.SelectDropped += dropped
	}
}

// MaskedSpGEMMStream computes M ⊙ (A × B) row by row and hands each
// nonempty row to sink instead of assembling a CSR — the terminal
// multiply of a chain whose consumer wants rows, not a matrix (the BC
// backward sweep folds each row straight into its dependency vector).
//
// sink is called once per output row that holds at least one entry,
// with the row index and the row's sorted column/value slices. The
// slices are workspace-owned and valid only for the duration of the
// call. Calls come from worker goroutines concurrently, but rows are
// disjoint: no row index is delivered twice, so a sink that writes only
// row-i-owned state needs no locking.
func MaskedSpGEMMStream[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
	sink func(i int, cols []sparse.Index, vals []T),
) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if sink == nil {
		return errConfig("stream fusion needs a non-nil sink")
	}
	if a.Cols != b.Rows || m.Rows != a.Rows || m.Cols != b.Cols {
		return fmt.Errorf("%w: M %dx%d, A %dx%d, B %dx%d",
			sparse.ErrShape, m.Rows, m.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Rows == 0 {
		return nil
	}

	ctx := cfg.Context
	pw := cfg.planWorkers()
	scope := cfg.Recorder.StartRun()
	defer scope.End()
	poolPrior := cfg.Engine.Stats()
	plan, err := planFor(ctx, cfg, pw, m, a, b, scope)
	if err != nil {
		return wrapRunErr(err)
	}
	tiles := plan.Tiles
	workers := sched.Workers(cfg.Workers)

	// Per-worker row buffers only: nothing is assembled, so no per-tile
	// staging is needed.
	ws := exec.Masked[T, S](cfg.Engine, sr, cfg.Accumulator, cfg.MarkerBits,
		b.Cols, plan.RowCap, workers, workers)
	// Poison-on-error: quarantine the workspace unless the run reaches
	// its fully-successful exit (see maskedRun).
	clean := false
	defer func() {
		if !clean {
			ws.Poison()
		}
		ws.Release()
	}()
	accs := ws.Accs[:workers]
	if cfg.Resilience != nil {
		defer armAccumChaos(cfg, accs)()
	}
	bufs := ws.Outs[:workers]
	prior := snapshotAccumStats(accs, scope)
	fcs := fusedSlots(scope, workers)
	entrySize := fusedEntrySize[T]()

	if err := runKernelSpanned(ctx, cfg, scope, workers, len(tiles), func(worker, t int, wc *obs.WorkerCounters) {
		runTileStream(sr, accs[worker], m, a, b, cfg, tiles[t], &bufs[worker],
			sink, entrySize, fcSlot(fcs, worker), wc)
	}); err != nil {
		return wrapRunErr(err)
	}

	recordAccumDeltas(accs, prior, scope)
	recordPoolDelta(cfg, poolPrior, scope)
	foldFused(scope, fcs, obs.FusedCounters{StreamRuns: 1})
	clean = true
	return nil
}

// runTileStream computes one tile's rows into the worker's row buffer,
// delivering each nonempty row to sink as soon as it is gathered.
//
//spgemm:hotpath
func runTileStream[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T],
	m, a, b *sparse.CSR[T], cfg Config, tile tiling.Tile, buf *exec.TileBuf[T],
	sink func(i int, cols []sparse.Index, vals []T),
	entrySize int64, fc *obs.FusedCounters, wc *obs.WorkerCounters,
) {
	var emitted int64
	for i := tile.Lo; i < tile.Hi; i++ {
		maskCols := m.RowCols(i)
		buf.Cols = buf.Cols[:0]
		buf.Vals = buf.Vals[:0]
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
			buf.Cols, buf.Vals = acc.Gather(maskCols, buf.Cols, buf.Vals)
		}
		if len(buf.Cols) > 0 {
			sink(i, buf.Cols, buf.Vals)
			emitted += int64(len(buf.Cols))
		}
	}
	if wc != nil {
		wc.Rows.Add(int64(tile.Rows()))
		wc.Gathered.Add(emitted)
	}
	if fc != nil {
		fc.MidEntries += emitted
		fc.MidBytes += emitted * entrySize
	}
}
