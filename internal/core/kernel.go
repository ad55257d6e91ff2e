package core

import (
	"context"
	"fmt"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// MaskedSpGEMM computes C = M ⊙ (A × B) over the given semiring with the
// given configuration. The mask is structural (GraphBLAS Boolean mask):
// an output entry may exist only where M stores an entry, regardless of
// M's values. All operands must be CSR with sorted rows; the result is
// CSR with sorted rows.
//
// Shape requirements: A is m×k, B is k×n, M is m×n.
func MaskedSpGEMM[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], error) {
	return maskedRun(sr, m, a, b, cfg, nil)
}

// MaskedSpGEMMInstrumented is MaskedSpGEMM with per-operation counting:
// it returns the actual accumulator traffic of the run, the ground
// truth that validates the symbolic Profile and quantifies how much
// work each iteration space really does on a given input.
func MaskedSpGEMMInstrumented[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], Counters, error) {
	var totals atomicCounters
	var decorators []*countingAccumulator[T]
	c, err := maskedRun(sr, m, a, b, cfg, func(inner accum.Accumulator[T]) accum.Accumulator[T] {
		d := &countingAccumulator[T]{inner: inner}
		decorators = append(decorators, d)
		return d
	})
	if err != nil {
		return nil, Counters{}, err
	}
	for _, d := range decorators {
		d.flushInto(&totals)
	}
	return c, totals.snapshot(), nil
}

// maskedRun is the shared kernel body; wrap, when non-nil, decorates
// each worker's accumulator (used by the instrumented entry point).
func maskedRun[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
	wrap func(accum.Accumulator[T]) accum.Accumulator[T],
) (*sparse.CSR[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
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

	// The workspace carries the per-worker accumulators (§III-C sizing:
	// masked spaces hold at most max_i nnz(M[i,:]) entries per row; the
	// vanilla bound is folded into plan.RowCap) and the per-tile output
	// staging buffers — checked out of the engine's pool, or constructed
	// fresh when cfg.Engine is nil.
	ws := exec.Masked[T, S](cfg.Engine, sr, cfg.Accumulator, cfg.MarkerBits,
		b.Cols, plan.RowCap, workers, len(tiles))
	// Poison-on-error: a run that fails after checkout (panic, cancel,
	// injected fault) may leave accumulators or staging buffers
	// mid-mutation, so the workspace is quarantined instead of pooled.
	// The flag flips only on the fully-successful exit, so error returns
	// and panic unwinding take the same quarantine path.
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
	if wrap != nil {
		// The decorators are per run by design (they are drained after the
		// run); never let them leak into the pooled workspace.
		wrapped := make([]accum.Accumulator[T], workers)
		for w := range wrapped {
			wrapped[w] = wrap(accs[w])
		}
		accs = wrapped
	}
	outs := ws.Outs[:len(tiles)]
	prior := snapshotAccumStats(accs, scope)

	if err := runKernelSpanned(ctx, cfg, scope, workers, len(tiles), func(worker, t int, wc *obs.WorkerCounters) {
		runTile(sr, accs[worker], m, a, b, cfg, tiles[t], &outs[t], wc)
	}); err != nil {
		return nil, wrapRunErr(err)
	}

	c, err := assembleSpanned(ctx, cfg, scope, a.Rows, b.Cols, tiles, outs, pw)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	recordAccumDeltas(accs, prior, scope)
	recordPoolDelta(cfg, poolPrior, scope)
	clean = true
	return c, nil
}

// planSerialCutoff is the row count below which the plan-construction
// and assembly passes stay serial: goroutine fan-out costs more than a
// short O(rows) loop. A variable so tests can lower it to exercise the
// parallel paths on small inputs.
var planSerialCutoff = 1 << 14

// blockWorkers returns the worker count to use for an O(n) plan pass:
// 1 below the crossover threshold, p otherwise.
func blockWorkers(p, n int) int {
	if n < planSerialCutoff {
		return 1
	}
	return p
}

func maxRowNNZ[T sparse.Number](ctx context.Context, m *sparse.CSR[T], p int) (int64, error) {
	p = blockWorkers(p, m.Rows)
	if p <= 1 {
		var mx int64
		for i := 0; i < m.Rows; i++ {
			if n := m.RowNNZ(i); n > mx {
				mx = n
			}
		}
		return mx, nil
	}
	p = sched.Workers(p)
	maxes := make([]int64, p)
	if err := sched.BlocksE(ctx, p, m.Rows, func(w, lo, hi int) {
		var mx int64
		for i := lo; i < hi; i++ {
			if n := m.RowNNZ(i); n > mx {
				mx = n
			}
		}
		maxes[w] = mx
	}); err != nil {
		return 0, err
	}
	var mx int64
	for _, v := range maxes {
		if v > mx {
			mx = v
		}
	}
	return mx, nil
}

// runTile computes the output rows of one tile into out using the
// worker-local accumulator, sizing the buffers by the tile's mask
// volume (output ⊆ mask). Buffers large enough from an earlier run of
// the (possibly pooled) workspace are truncated in place, not
// reallocated. wc, when non-nil, receives the worker's exact operation
// counts.
//
//spgemm:hotpath
func runTile[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T],
	m, a, b *sparse.CSR[T], cfg Config, tile tiling.Tile, out *exec.TileBuf[T],
	wc *obs.WorkerCounters,
) {
	maskVol := m.RowPtr[tile.Hi] - m.RowPtr[tile.Lo]
	if int64(cap(out.Cols)) < maskVol || int64(cap(out.Vals)) < maskVol {
		//lint:ignore hotpathalloc amortized: first run at this mask volume sizes the staging buffers
		out.Cols = make([]sparse.Index, 0, maskVol)
		out.Vals = make([]T, 0, maskVol) //lint:ignore hotpathalloc amortized: sized with Cols above
	} else {
		out.Cols = out.Cols[:0]
		out.Vals = out.Vals[:0]
	}
	runTilePlanned(sr, acc, m, a, b, cfg, tile, out, wc)
}

// rowVanilla is the Fig. 3 algorithm: accumulate the full product row,
// mask only at gather time. The wasted updates outside the mask are the
// point — this is the cost the better iteration spaces avoid.
//
//spgemm:hotpath
func rowVanilla[T sparse.Number](
	acc accum.Accumulator[T], a, b *sparse.CSR[T], i int,
	wc *obs.WorkerCounters,
) {
	aCols, aVals := a.Row(i)
	rowVanillaSlices(acc, aCols, aVals, b, wc)
}

// rowVanillaSlices is rowVanilla over an explicit sparse left row —
// the form the fused pipeline feeds with intermediate rows that never
// became a CSR.
//
//spgemm:hotpath
func rowVanillaSlices[T sparse.Number](
	acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T],
	wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	for kk, k := range aCols {
		aik := aVals[kk]
		bCols, bVals := b.Row(int(k))
		if wc != nil {
			wc.Flops.Add(int64(len(bCols)))
		}
		acc.Scatter(aik, bCols, bVals)
	}
}

// rowMaskLoad is the Fig. 5 (GrB) algorithm: load the mask into the
// accumulator, then linearly scan each B row, discarding updates that
// miss the mask.
//
//spgemm:hotpath
func rowMaskLoad[T sparse.Number](
	acc accum.Accumulator[T], a, b *sparse.CSR[T], i int, maskCols []sparse.Index,
	wc *obs.WorkerCounters,
) {
	aCols, aVals := a.Row(i)
	rowMaskLoadSlices(acc, aCols, aVals, b, maskCols, wc)
}

// rowMaskLoadSlices is rowMaskLoad over an explicit sparse left row.
//
//spgemm:hotpath
func rowMaskLoadSlices[T sparse.Number](
	acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T],
	maskCols []sparse.Index, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	acc.LoadMask(maskCols)
	for kk, k := range aCols {
		aik := aVals[kk]
		bCols, bVals := b.Row(int(k))
		if wc != nil {
			wc.Flops.Add(int64(len(bCols)))
		}
		acc.ScatterMasked(aik, bCols, bVals)
	}
}

// rowCoIter is the Fig. 7 algorithm: iterate the mask row and binary
// search each B row for the mask's columns, touching only candidate
// output positions.
//
//spgemm:hotpath
func rowCoIter[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], a, b *sparse.CSR[T], i int, maskCols []sparse.Index,
	wc *obs.WorkerCounters,
) {
	aCols, aVals := a.Row(i)
	rowCoIterSlices(sr, acc, aCols, aVals, b, maskCols, wc)
}

// rowCoIterSlices is rowCoIter over an explicit sparse left row.
//
//spgemm:hotpath
func rowCoIterSlices[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T],
	maskCols []sparse.Index, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	for kk, k := range aCols {
		aik := aVals[kk]
		bCols, bVals := b.Row(int(k))
		// Flops stays the Eq. 2 volume Σ nnz(B[k,:]) even though CoIter
		// touches fewer entries, so the counter is comparable across
		// iteration spaces and matches the planner's estimate exactly.
		if wc != nil {
			wc.Flops.Add(int64(len(bCols)))
		}
		coIterate(sr, acc, aik, maskCols, bCols, bVals)
	}
}

// coIterate performs one mask-vs-B-row intersection by binary search
// (Eq. 3 cost: nnz(M[i,:])·log2 nnz(B[k,:])). The search range shrinks
// monotonically because mask columns are ascending. The search is
// hand-rolled rather than sort.Search: the closure the latter takes
// would be re-created (and on some inlining decisions, heap-allocated)
// per (mask entry × B row) pair, squarely inside the Eq. 3 inner loop.
//
//spgemm:hotpath
func coIterate[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], aik T,
	maskCols, bCols []sparse.Index, bVals []T,
) {
	lo := 0
	for _, j := range maskCols {
		// Binary search for the first bCols[p] >= j in bCols[lo:].
		p, hi := lo, len(bCols)
		for p < hi {
			mid := int(uint(p+hi) >> 1)
			if bCols[mid] < j {
				p = mid + 1
			} else {
				hi = mid
			}
		}
		lo = p
		if lo >= len(bCols) {
			return
		}
		if bCols[lo] == j {
			acc.Update(j, sr.Times(aik, bVals[lo]))
			lo++
			if lo >= len(bCols) {
				return
			}
		}
	}
}

// rowHybrid is the Fig. 9 algorithm: the mask is loaded (the linear
// branch needs it), then each B row is processed by whichever of the two
// strategies the Eq. 3 cost model predicts is cheaper.
//
//spgemm:hotpath
func rowHybrid[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], a, b *sparse.CSR[T], i int,
	maskCols []sparse.Index, kappa float64, wc *obs.WorkerCounters,
) {
	aCols, aVals := a.Row(i)
	rowHybridSlices(sr, acc, aCols, aVals, b, maskCols, kappa, wc)
}

// rowHybridSlices is rowHybrid over an explicit sparse left row.
//
//spgemm:hotpath
func rowHybridSlices[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T],
	maskCols []sparse.Index, kappa float64, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	acc.LoadMask(maskCols)
	nnzM := len(maskCols)
	for kk, k := range aCols {
		aik := aVals[kk]
		bCols, bVals := b.Row(int(k))
		if wc != nil {
			wc.Flops.Add(int64(len(bCols)))
		}
		if coIterCheaper(nnzM, len(bCols), kappa) {
			if wc != nil {
				wc.CoIterPicks.Add(1)
			}
			coIterate(sr, acc, aik, maskCols, bCols, bVals)
		} else {
			if wc != nil {
				wc.LinearPicks.Add(1)
			}
			acc.ScatterMasked(aik, bCols, bVals)
		}
	}
}

// assemble stitches the per-tile outputs into one CSR matrix on p
// workers; it is assembleE without cancellation, kept for callers and
// tests that cannot fail. See assembleE for the pass structure.
func assemble[T sparse.Number](
	rows, cols int, tiles []tiling.Tile, outs []exec.TileBuf[T], p int,
) *sparse.CSR[T] {
	c, err := assembleE(nil, rows, cols, tiles, outs, p)
	if err != nil {
		// With a nil context the only failure mode is a worker panic on
		// malformed tile outputs — an internal invariant violation.
		panic(err)
	}
	return c
}

// assembleE stitches the per-tile outputs into one CSR matrix on p
// workers. The three passes — row-count scatter, row-pointer prefix
// sum, and per-tile payload copy — each write disjoint regions (tiles
// partition the rows, so their RowPtr slots and payload ranges never
// overlap), making the parallel result bit-identical to the serial one.
// Small results, or p <= 1, take the serial path unchanged. ctx cancels
// between passes and blocks; worker panics surface as errors.
func assembleE[T sparse.Number](
	ctx context.Context, rows, cols int, tiles []tiling.Tile, outs []exec.TileBuf[T], p int,
) (*sparse.CSR[T], error) {
	c := &sparse.CSR[T]{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	if p = blockWorkers(p, rows); p <= 1 {
		var nnz int64
		for t := range outs {
			for r, n := range outs[t].RowNNZ {
				c.RowPtr[tiles[t].Lo+r+1] = int64(n)
				nnz += int64(n)
			}
		}
		for i := 0; i < rows; i++ {
			c.RowPtr[i+1] += c.RowPtr[i]
		}
		c.ColIdx = make([]sparse.Index, nnz)
		c.Val = make([]T, nnz)
		for t := range outs {
			lo := c.RowPtr[tiles[t].Lo]
			copy(c.ColIdx[lo:], outs[t].Cols)
			copy(c.Val[lo:], outs[t].Vals)
		}
		return c, nil
	}
	if err := sched.BlocksE(ctx, p, len(tiles), func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			base := tiles[t].Lo
			for r, n := range outs[t].RowNNZ {
				c.RowPtr[base+r+1] = int64(n)
			}
		}
	}); err != nil {
		return nil, err
	}
	if err := tiling.InclusiveScanE(ctx, c.RowPtr[1:], p); err != nil {
		return nil, err
	}
	nnz := c.RowPtr[rows]
	c.ColIdx = make([]sparse.Index, nnz)
	c.Val = make([]T, nnz)
	if err := sched.BlocksE(ctx, p, len(tiles), func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			off := c.RowPtr[tiles[t].Lo]
			copy(c.ColIdx[off:], outs[t].Cols)
			copy(c.Val[off:], outs[t].Vals)
		}
	}); err != nil {
		return nil, err
	}
	return c, nil
}
