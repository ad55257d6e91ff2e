// Package accum implements the sparse accumulators of the paper's §III-C.
//
// An accumulator stores the partial sums of one output row of the
// masked-SpGEMM and, in the mask-load iteration spaces, also encodes
// which columns the mask allows. Two families are provided, matching the
// paper:
//
//   - Dense: a vector of size n (the column dimension) with a per-slot
//     marker word. Advancing the marker between rows resets the state
//     implicitly (SuiteSparse:GraphBLAS's trick); the marker width is
//     tunable (8/16/32/64 bits, Fig. 13) and overflow triggers a full
//     clear (the paper's relaxation of the 64-bit marker).
//   - Hash: an open-addressing table sized by max_i nnz(M[i,:]) — the
//     paper's improvement over sizing by the flop upper bound — with the
//     same marker-based reset.
//
// Explicit-reset variants (GrB's strategy: walk the mask columns after
// each row and clear them) are provided for the reset-strategy ablation.
package accum

import (
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Marker constrains the marker word used for implicit state reset. A
// narrower marker shrinks the state array (better locality) but wraps
// sooner, forcing more full clears — the trade-off swept in Fig. 13.
type Marker interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Accumulator is the contract every masked-SpGEMM iteration space is
// written against. The per-row protocol is:
//
//	BeginRow()
//	LoadMask(maskCols)            // mask-load and hybrid spaces only
//	Scatter / ScatterMasked ...   // one call per B row: aik ⊗ B[k,:]
//	Update ...                    // co-iteration hits only
//	cols, vals = Gather(maskCols, cols, vals)
//
// The contract is row-granular on purpose. Go stencils generic code by
// GC shape, and every zero-size semiring shares one shape, so Plus and
// Times on a semiring type parameter are dictionary calls; a call
// through this interface is another indirect call. Taking a whole B row
// per call pays the interface call once per row, and lets each
// implementation run its own loop over the row with the semiring calls
// only where a product is actually kept.
//
// Gather iterates the mask columns, so output rows come out sorted
// whenever mask rows are sorted, and entries outside the mask — which
// the vanilla space wastefully accumulates — are dropped for free.
type Accumulator[T sparse.Number] interface {
	// BeginRow resets the accumulator state for a new output row.
	BeginRow()
	// LoadMask marks the given columns as allowed by the mask.
	LoadMask(cols []sparse.Index)
	// Update accumulates x into column j unconditionally, creating the
	// entry if absent. Used for the co-iteration space's hits, which
	// arrive one at a time from a binary search.
	Update(j sparse.Index, x T)
	// Scatter accumulates aik ⊗ vals[p] into column cols[p] for every p,
	// creating entries as needed. Used by the vanilla space.
	Scatter(aik T, cols []sparse.Index, vals []T)
	// ScatterMasked accumulates aik ⊗ vals[p] into column cols[p] for
	// every p whose column LoadMask allowed, and returns how many were
	// kept; the rest are discarded without computing the product. Used
	// by the mask-load space and the hybrid space's linear branch.
	ScatterMasked(aik T, cols []sparse.Index, vals []T) (hits int)
	// Gather appends the accumulated entries whose column appears in
	// maskCols (in that order) to cols/vals and returns the extended
	// slices.
	Gather(maskCols []sparse.Index, cols []sparse.Index, vals []T) ([]sparse.Index, []T)
}

// Kind selects an accumulator family.
type Kind int

const (
	// DenseKind is the size-n marker vector accumulator.
	DenseKind Kind = iota
	// HashKind is the open-addressing hash accumulator.
	HashKind
	// DenseExplicitKind is the dense accumulator with GrB-style explicit
	// per-row reset instead of markers.
	DenseExplicitKind
	// HashExplicitKind is the hash accumulator with explicit reset.
	HashExplicitKind
	// SortListKind is the sort-based log accumulator (no per-column
	// state; dedup at gather time).
	SortListKind
)

func (k Kind) String() string {
	switch k {
	case DenseKind:
		return "Dense"
	case HashKind:
		return "Hash"
	case DenseExplicitKind:
		return "DenseExplicit"
	case HashExplicitKind:
		return "HashExplicit"
	case SortListKind:
		return "SortList"
	default:
		return "Unknown"
	}
}

// New builds an accumulator of the given kind for output rows with
// column dimension n and at most rowCap entries per row (the paper sizes
// this by max_i nnz(M[i,:]); vanilla iteration must pass the flop upper
// bound instead). markerBits must be 8, 16, 32 or 64 and is ignored by
// the explicit-reset kinds.
func New[T sparse.Number, S semiring.Semiring[T]](
	kind Kind, sr S, n int, rowCap int64, markerBits int,
) Accumulator[T] {
	switch kind {
	case DenseKind:
		switch markerBits {
		case 8:
			return NewDense[T, S, uint8](sr, n)
		case 16:
			return NewDense[T, S, uint16](sr, n)
		case 32:
			return NewDense[T, S, uint32](sr, n)
		case 64:
			return NewDense[T, S, uint64](sr, n)
		}
	case HashKind:
		switch markerBits {
		case 8:
			return NewHash[T, S, uint8](sr, rowCap)
		case 16:
			return NewHash[T, S, uint16](sr, rowCap)
		case 32:
			return NewHash[T, S, uint32](sr, rowCap)
		case 64:
			return NewHash[T, S, uint64](sr, rowCap)
		}
	case DenseExplicitKind:
		return NewDenseExplicit[T, S](sr, n)
	case HashExplicitKind:
		return NewHashExplicit[T, S](sr, rowCap)
	case SortListKind:
		return NewSortList[T, S](sr, rowCap)
	}
	panic("accum: unsupported kind/markerBits combination")
}
