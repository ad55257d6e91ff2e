package main

import (
	"math"

	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
	"maskedspgemm/spgemm"
)

// graphSpec is one Table I stand-in: the generator and corpus
// parameters of internal/bench's corpus entry of the same name, with the
// corpus's fixed generator seed replaced by one derived from the
// workload seed.
type graphSpec struct {
	name string
	// corpusSeed is the corpus entry's own generator seed; it is mixed
	// with the workload seed so every graph of a workload differs.
	corpusSeed uint64
	// build generates the graph at the given shift (each unit roughly
	// halves the vertex count; 0 is corpus scale).
	build func(shift int, seed uint64) *sparse.CSR[float64]
}

var (
	roadSim = graphSpec{"GAP-road-sim", 0x6A9, func(s int, seed uint64) *sparse.CSR[float64] {
		return graphgen.RoadNetwork(half(230, s/2+s%2), half(200, s/2), 0.95, seed)
	}}
	hollywoodSim = graphSpec{"hollywood-2009-sim", 0x0111, func(s int, seed uint64) *sparse.CSR[float64] {
		return graphgen.RMAT(12-min(s, 6), 36, 0.55, 0.2, 0.2, seed)
	}}
	stokesSim = graphSpec{"stokes-sim", 0x570E5, func(s int, seed uint64) *sparse.CSR[float64] {
		n := half(26000, s)
		return graphgen.Circuit(n, 9, 0.85, 2, n/60, seed)
	}}
	liveJournalSim = graphSpec{"com-LiveJournal-sim", 0x117E, func(s int, seed uint64) *sparse.CSR[float64] {
		return graphgen.RMAT(14-min(s, 8), 9, 0.57, 0.19, 0.19, seed)
	}}
)

// generate builds the graph for a workload seed.
func (g graphSpec) generate(shift int, seed uint64) *sparse.CSR[float64] {
	return g.build(shift, splitmix(g.corpusSeed^splitmix(seed)))
}

// half mirrors the corpus's size reduction: n halved shift times,
// floored at 16.
func half(n, shift int) int {
	for ; shift > 0; shift-- {
		n /= 2
	}
	return max(n, 16)
}

// splitmix is the SplitMix64 finalizer: a bijective scramble, so
// distinct workload seeds give distinct, well-mixed generator seeds.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// facade converts a generated matrix into the public spgemm.Matrix the
// program under test receives.
func facade(m *sparse.CSR[float64]) (*spgemm.Matrix, error) {
	entries := make([]spgemm.Triple, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			entries = append(entries, spgemm.Triple{Row: i, Col: int(m.ColIdx[p]), Val: m.Val[p]})
		}
	}
	return spgemm.FromTriples(m.Rows, m.Cols, entries)
}

// lowerSystem is the triangular-solve operand built from a graph: its
// strict lower triangle plus a dominant diagonal (1 + lower degree), so
// the system is nonsingular and its dependency DAG is the graph's own
// edge structure.
func lowerSystem(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](a.Rows, a.Rows, a.NNZ()/2+int64(a.Rows))
	for i := 0; i < a.Rows; i++ {
		deg := 0.0
		for _, j := range a.RowCols(i) {
			if int(j) < i {
				coo.Add(sparse.Index(i), j, 1)
				deg++
			}
		}
		coo.Add(sparse.Index(i), sparse.Index(i), 1+deg)
	}
	return coo.ToCSR()
}

// rhs is a seeded right-hand side with entries in [0.5, 1.5).
func rhs(n int, seed uint64) []float64 {
	b := make([]float64, n)
	s := splitmix(seed ^ 0xB)
	for i := range b {
		s = splitmix(s)
		b[i] = 0.5 + float64(s>>11)/float64(1<<53)
	}
	return b
}

// operand is one input's size as stored in the record. Flops is the
// Eq. 2 work estimate of the operand's use: Σ over the product's
// per-row work for a masked product, nnz for a triangular solve (each
// stored entry is one multiply-add).
type operand struct {
	Name  string `json:"name"`
	Role  string `json:"role"`
	N     int    `json:"n"`
	NNZ   int64  `json:"nnz"`
	Flops int64  `json:"flops"`
}

// productOperand records a graph used as C = A ⊙ (A×A).
func productOperand(name string, a *sparse.CSR[float64]) operand {
	var flops int64
	for _, w := range tiling.RowWork(a, a, a) {
		flops += w
	}
	return operand{Name: name, Role: "mask=a=b", N: a.Rows, NNZ: a.NNZ(), Flops: flops}
}

// solveOperand records a lower-triangular system.
func solveOperand(name string, l *sparse.CSR[float64]) operand {
	return operand{Name: name, Role: "lower", N: l.Rows, NNZ: l.NNZ(), Flops: l.NNZ()}
}

// fnv folds 64-bit words FNV-1a style; the checksums below feed every
// structural index and exact value bit pattern through it.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(w uint64) { *h = (*h ^ fnv(w)) * 1099511628211 }

// matrixSum checksums a result matrix: shape, row lengths, column
// indices and value bits. It allocates nothing.
func matrixSum(m *spgemm.Matrix) uint64 {
	h := newFNV()
	h.add(uint64(m.Rows()))
	h.add(uint64(m.Cols()))
	for i := 0; i < m.Rows(); i++ {
		cols, vals := m.Row(i)
		h.add(uint64(len(cols)))
		for k, j := range cols {
			h.add(uint64(j))
			h.add(math.Float64bits(vals[k]))
		}
	}
	return uint64(h)
}

// vectorSum checksums a solution vector bit for bit.
func vectorSum(x []float64) uint64 {
	h := newFNV()
	for _, v := range x {
		h.add(math.Float64bits(v))
	}
	return uint64(h)
}
