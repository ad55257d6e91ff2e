package accum

import (
	"fmt"
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// benchRow builds a deterministic mask row and a stream of candidate
// columns shaped like a masked-SpGEMM row: maskLen allowed columns out
// of n, and updates candidates of which about hitPct percent hit the
// mask.
func benchRow(n, maskLen, updates, hitPct int) (mask []sparse.Index, stream []sparse.Index) {
	mask = make([]sparse.Index, maskLen)
	stride := n / maskLen
	for i := range mask {
		mask[i] = sparse.Index(i * stride)
	}
	stream = make([]sparse.Index, updates)
	for i := range stream {
		if i*hitPct%100 < hitPct {
			stream[i] = mask[i%maskLen] // hit
		} else {
			stream[i] = sparse.Index((i*stride + stride/2) % n) // miss
		}
	}
	return mask, stream
}

// BenchmarkAccumulatorRow measures the full per-row protocol (reset,
// mask load, one ScatterMasked call per B row, gather) for every
// accumulator configuration — the §III-C micro-comparison. Each kind
// runs a hit-heavy stream (90% of entries in the mask), an even one and
// a miss-heavy one (10%), cut into B rows of bRowLen entries.
func BenchmarkAccumulatorRow(b *testing.B) {
	const n, maskLen, updates, bRowLen = 1 << 16, 64, 512, 16
	sr := semiring.PlusTimes[float64]{}
	type pt = semiring.PlusTimes[float64]
	kinds := []struct {
		name string
		acc  Accumulator[float64]
	}{
		{"Dense8", NewDense[float64, pt, uint8](sr, n)},
		{"Dense16", NewDense[float64, pt, uint16](sr, n)},
		{"Dense32", NewDense[float64, pt, uint32](sr, n)},
		{"Dense64", NewDense[float64, pt, uint64](sr, n)},
		{"Hash32", NewHash[float64, pt, uint32](sr, maskLen)},
		{"DenseExplicit", NewDenseExplicit[float64, pt](sr, n)},
		{"HashExplicit", NewHashExplicit[float64, pt](sr, int64(maskLen))},
		{"SortList", NewSortList[float64, pt](sr, maskLen)},
	}
	streams := []struct {
		name   string
		hitPct int
	}{{"hit", 90}, {"mixed", 50}, {"miss", 10}}
	ones := make([]float64, bRowLen)
	for i := range ones {
		ones[i] = 1
	}
	var cols []sparse.Index
	var vals []float64
	for _, k := range kinds {
		for _, st := range streams {
			mask, stream := benchRow(n, maskLen, updates, st.hitPct)
			b.Run(k.name+"/"+st.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.acc.BeginRow()
					k.acc.LoadMask(mask)
					for lo := 0; lo < len(stream); lo += bRowLen {
						k.acc.ScatterMasked(1, stream[lo:lo+bRowLen], ones)
					}
					cols, vals = k.acc.Gather(mask, cols[:0], vals[:0])
				}
				b.ReportMetric(float64(len(cols)), "row-nnz")
				_ = vals
			})
		}
	}
}

// BenchmarkAccumulatorReset isolates the reset cost: marker-based reset
// is O(1) per row until the marker wraps; explicit reset walks the
// touched slots every row.
func BenchmarkAccumulatorReset(b *testing.B) {
	const n, maskLen = 1 << 18, 128
	mask, _ := benchRow(n, maskLen, 1, 0)
	sr := semiring.PlusTimes[float64]{}
	for _, bits := range []int{8, 32} {
		b.Run(fmt.Sprintf("DenseMarker%d", bits), func(b *testing.B) {
			acc := New[float64](DenseKind, sr, n, maskLen, bits)
			for i := 0; i < b.N; i++ {
				acc.BeginRow()
				acc.LoadMask(mask)
			}
		})
	}
	b.Run("DenseExplicit", func(b *testing.B) {
		acc := New[float64](DenseExplicitKind, sr, n, maskLen, 64)
		for i := 0; i < b.N; i++ {
			acc.BeginRow()
			acc.LoadMask(mask)
		}
	})
}
