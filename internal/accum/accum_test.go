package accum

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// allKinds enumerates every accumulator configuration under test.
func allKinds() []struct {
	kind Kind
	bits int
	name string
} {
	var out []struct {
		kind Kind
		bits int
		name string
	}
	for _, k := range []Kind{DenseKind, HashKind} {
		for _, b := range []int{8, 16, 32, 64} {
			out = append(out, struct {
				kind Kind
				bits int
				name string
			}{k, b, fmt.Sprintf("%v-%d", k, b)})
		}
	}
	out = append(out, struct {
		kind Kind
		bits int
		name string
	}{DenseExplicitKind, 64, "DenseExplicit"})
	out = append(out, struct {
		kind Kind
		bits int
		name string
	}{HashExplicitKind, 64, "HashExplicit"})
	out = append(out, struct {
		kind Kind
		bits int
		name string
	}{SortListKind, 64, "SortList"})
	return out
}

func newAcc(kind Kind, bits int, n int, rowCap int64) Accumulator[float64] {
	return New[float64](kind, semiring.PlusTimes[float64]{}, n, rowCap, bits)
}

// masked1 offers the single entry (j, x) to ScatterMasked and reports
// whether the mask kept it; aik = 1 makes the product x under PlusTimes.
func masked1(acc Accumulator[float64], j sparse.Index, x float64) bool {
	return acc.ScatterMasked(1, []sparse.Index{j}, []float64{x}) == 1
}

// srCase is one semiring the oracle tests run every accumulator under.
// The oracle folds values with the semiring's own Plus and Times, so it
// checks the accumulator's bookkeeping, not the algebra.
type srCase struct {
	name        string
	plus, times func(x, y float64) float64
	// withInf lets generated values be +Inf, the MinPlus identity.
	withInf bool
	newAcc  func(kind Kind, bits, n int, rowCap int64) Accumulator[float64]
}

func srOf[S semiring.Semiring[float64]](name string, sr S, withInf bool) srCase {
	return srCase{name, sr.Plus, sr.Times, withInf,
		func(kind Kind, bits, n int, rowCap int64) Accumulator[float64] {
			return New[float64](kind, sr, n, rowCap, bits)
		}}
}

func oracleSemirings() []srCase {
	return []srCase{
		srOf("PlusTimes", semiring.PlusTimes[float64]{}, false),
		srOf("PlusPair", semiring.PlusPair[float64]{}, false),
		srOf("MinPlus", semiring.MinPlus[float64]{Inf: math.Inf(1)}, true),
	}
}

// value draws an operand in 1..5, or +Inf one time in four when the
// semiring allows it.
func (c srCase) value(r *rand.Rand) float64 {
	if c.withInf && r.Intn(4) == 0 {
		return math.Inf(1)
	}
	return float64(r.Intn(5) + 1)
}

// bRow draws a B row of up to maxLen entries over n columns, in random
// order and possibly with repeats.
func (c srCase) bRow(r *rand.Rand, n, maxLen int) ([]sparse.Index, []float64) {
	k := r.Intn(maxLen + 1)
	cols, vals := make([]sparse.Index, k), make([]float64, k)
	for p := range cols {
		cols[p] = sparse.Index(r.Intn(n))
		vals[p] = c.value(r)
	}
	return cols, vals
}

// skipRows advances the accumulator over up to 23 empty rows, so the
// 8-bit markers wrap within a test's few dozen real rows.
func skipRows(acc Accumulator[float64], r *rand.Rand) {
	for k := r.Intn(24); k > 0; k-- {
		acc.BeginRow()
	}
}

// randomMask draws a sorted mask row of size distinct columns.
func randomMask(r *rand.Rand, n, size int) ([]sparse.Index, map[sparse.Index]bool) {
	maskSet := map[sparse.Index]bool{}
	for len(maskSet) < size {
		maskSet[sparse.Index(r.Intn(n))] = true
	}
	var mask []sparse.Index
	for j := range maskSet {
		mask = append(mask, j)
	}
	sort.Slice(mask, func(a, b int) bool { return mask[a] < mask[b] })
	return mask, maskSet
}

// markerWatch records, across a property test's iterations, whether an
// 8-bit marker wrapped and whether a hash table grew inside a Scatter
// call, so the test can require that both paths actually ran.
type markerWatch struct {
	clears, scatterGrows int64
	inScatter            bool
}

// arm installs the grow hook on acc when it has one.
func (w *markerWatch) arm(acc Accumulator[float64]) {
	if g, ok := acc.(GrowHooked); ok {
		g.SetGrowHook(func() {
			if w.inScatter {
				w.scatterGrows++
			}
		})
	}
}

// note folds acc's marker-overflow count into the watch.
func (w *markerWatch) note(acc Accumulator[float64]) {
	w.clears += acc.(Instrumented).AccumStats().Clears
}

// require fails t unless an 8-bit marker kind wrapped and, when
// wantGrow, a hash kind grew mid-Scatter.
func (w *markerWatch) require(t *testing.T, kind Kind, bits int, wantGrow bool) {
	t.Helper()
	if bits == 8 && (kind == DenseKind || kind == HashKind) && w.clears == 0 {
		t.Error("8-bit marker never wrapped")
	}
	if wantGrow && (kind == HashKind || kind == HashExplicitKind) && w.scatterGrows == 0 {
		t.Error("hash table never grew inside a Scatter call")
	}
}

func TestUpdateThenGather(t *testing.T) {
	for _, cfg := range allKinds() {
		t.Run(cfg.name, func(t *testing.T) {
			acc := newAcc(cfg.kind, cfg.bits, 32, 8)
			acc.BeginRow()
			acc.Update(5, 2)
			acc.Update(3, 1)
			acc.Update(5, 4) // accumulates onto 5
			mask := []sparse.Index{1, 3, 5, 9}
			cols, vals := acc.Gather(mask, nil, nil)
			if len(cols) != 2 || cols[0] != 3 || cols[1] != 5 {
				t.Fatalf("cols = %v, want [3 5]", cols)
			}
			if vals[0] != 1 || vals[1] != 6 {
				t.Fatalf("vals = %v, want [1 6]", vals)
			}
		})
	}
}

func TestScatterMaskedRespectsMask(t *testing.T) {
	for _, cfg := range allKinds() {
		t.Run(cfg.name, func(t *testing.T) {
			acc := newAcc(cfg.kind, cfg.bits, 32, 8)
			acc.BeginRow()
			mask := []sparse.Index{2, 7}
			acc.LoadMask(mask)
			// One B row: 3 is outside the mask, 7 is hit twice.
			hits := acc.ScatterMasked(2, []sparse.Index{3, 7, 7}, []float64{1, 5, 2})
			if hits != 2 {
				t.Errorf("hits = %d, want 2", hits)
			}
			cols, vals := acc.Gather(mask, nil, nil)
			if len(cols) != 1 || cols[0] != 7 || vals[0] != 14 {
				t.Fatalf("gather = %v %v, want [7] [14]", cols, vals)
			}
		})
	}
}

func TestRowIsolation(t *testing.T) {
	// State from one row must never leak into the next, across many more
	// rows than an 8-bit marker can count without clearing.
	for _, cfg := range allKinds() {
		t.Run(cfg.name, func(t *testing.T) {
			acc := newAcc(cfg.kind, cfg.bits, 64, 16)
			for row := 0; row < 1000; row++ {
				acc.BeginRow()
				j := sparse.Index(row % 64)
				mask := []sparse.Index{j}
				acc.LoadMask(mask)
				// Probe a column the previous rows wrote: must be invisible.
				prev := sparse.Index((row + 63) % 64)
				if prev != j {
					if masked1(acc, prev, 1) {
						t.Fatalf("row %d: stale mask slot %d accepted", row, prev)
					}
				}
				masked1(acc, j, float64(row))
				cols, vals := acc.Gather(mask, nil, nil)
				if len(cols) != 1 || cols[0] != j || vals[0] != float64(row) {
					t.Fatalf("row %d: gather = %v %v", row, cols, vals)
				}
			}
		})
	}
}

func TestDenseMarkerOverflowClears(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	d := NewDense[float64, semiring.PlusTimes[float64], uint8](sr, 16)
	for row := 0; row < 300; row++ {
		d.BeginRow()
		d.Update(1, 1)
	}
	if d.Clears == 0 {
		t.Error("uint8 marker never overflowed in 300 rows")
	}
	d64 := NewDense[float64, semiring.PlusTimes[float64], uint64](sr, 16)
	for row := 0; row < 300; row++ {
		d64.BeginRow()
		d64.Update(1, 1)
	}
	if d64.Clears != 0 {
		t.Error("uint64 marker overflowed in 300 rows")
	}
}

// TestHashGrowth inserts far more entries than the sizing hint, once
// through per-entry Update calls and once as a single B row, so both
// hash kinds grow many times in the middle of a Scatter call: the grow
// hook must fire once per grow, the table must keep every entry, and the
// explicit-reset kind must still track every live slot.
func TestHashGrowth(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	cols := make([]sparse.Index, 1000)
	vals := make([]float64, 1000)
	for j := range cols {
		cols[j] = sparse.Index(j)
		vals[j] = float64(j)
	}
	for _, kind := range []Kind{HashKind, HashExplicitKind} {
		for _, scatter := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/scatter=%v", kind, scatter), func(t *testing.T) {
				acc := New[float64](kind, sr, 1000, 4, 32)
				var hooked int64
				acc.(GrowHooked).SetGrowHook(func() { hooked++ })
				acc.BeginRow()
				if scatter {
					acc.Scatter(2, cols, vals)
				} else {
					for p, j := range cols {
						acc.Update(j, 2*vals[p])
					}
				}
				grows := acc.(Instrumented).AccumStats().Grows
				if grows == 0 {
					t.Fatal("hash table never grew")
				}
				if hooked != grows {
					t.Fatalf("grow hook fired %d times for %d grows", hooked, grows)
				}
				if err := acc.(Checkable).CheckClean(); err != nil {
					t.Fatal(err)
				}
				got, gotVals := acc.Gather(cols, nil, nil)
				if len(got) != 1000 {
					t.Fatalf("gathered %d entries, want 1000", len(got))
				}
				for p, j := range got {
					if gotVals[p] != 2*float64(j) {
						t.Fatalf("value at %d = %v", j, gotVals[p])
					}
				}
			})
		}
	}
}

func TestHashGrowthPreservesMaskSlots(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	h := NewHash[float64, semiring.PlusTimes[float64], uint16](sr, 2)
	h.BeginRow()
	mask := make([]sparse.Index, 200)
	for j := range mask {
		mask[j] = sparse.Index(j * 3)
	}
	h.LoadMask(mask) // forces several growths mid-load
	if h.Grows == 0 {
		t.Fatal("expected growth during LoadMask")
	}
	ones := make([]float64, len(mask))
	if hits := h.ScatterMasked(1, mask, ones); hits != len(mask) {
		t.Fatalf("%d of %d mask slots survived growth", hits, len(mask))
	}
	if masked1(h, 1, 1) { // 1 is not a multiple of 3
		t.Error("non-mask slot accepted after growth")
	}
}

// TestAccumulatorMatchesMap drives every accumulator under every oracle
// semiring with random rows of Update, Scatter and ScatterMasked calls
// and compares against a plain map — the property-based contract check.
// Empty rows between the real ones make the 8-bit markers wrap, and rows
// outgrow the hash sizing hint so tables grow inside Scatter calls.
func TestAccumulatorMatchesMap(t *testing.T) {
	for _, sc := range oracleSemirings() {
		for _, cfg := range allKinds() {
			// SortList keeps no per-column state, so an unconditional
			// update does not make a later out-of-mask ScatterMasked entry
			// succeed; the kernels never mix the two in one row. SortList
			// gets the vanilla protocol (Update and Scatter) here and the
			// masked one in TestAccumulatorMaskedOnlyProperty.
			mixed := cfg.kind != SortListKind
			t.Run(sc.name+"/"+cfg.name, func(t *testing.T) {
				var watch markerWatch
				f := func(seed int64, nRows uint8) bool {
					r := rand.New(rand.NewSource(seed))
					const n = 40
					acc := sc.newAcc(cfg.kind, cfg.bits, n, 10)
					watch.arm(acc)
					defer watch.note(acc)
					rows := int(nRows%20) + 1
					for row := 0; row < rows; row++ {
						skipRows(acc, r)
						acc.BeginRow()
						mask, maskSet := randomMask(r, n, 8)
						acc.LoadMask(mask)

						want := map[sparse.Index]float64{}
						add := func(j sparse.Index, x float64) {
							if v, ok := want[j]; ok {
								want[j] = sc.plus(v, x)
							} else {
								want[j] = x
							}
						}
						for op := 0; op < 12; op++ {
							switch r.Intn(3) {
							case 0:
								j, v := sparse.Index(r.Intn(n)), sc.value(r)
								acc.Update(j, v)
								add(j, v)
							case 1:
								aik := sc.value(r)
								cols, vals := sc.bRow(r, n, 8)
								watch.inScatter = true
								acc.Scatter(aik, cols, vals)
								watch.inScatter = false
								for p, j := range cols {
									add(j, sc.times(aik, vals[p]))
								}
							default:
								if !mixed {
									continue
								}
								// ScatterMasked keeps an entry the mask allows
								// or one an earlier unmasked update already
								// wrote — the accumulator cannot (and need not)
								// distinguish.
								aik := sc.value(r)
								cols, vals := sc.bRow(r, n, 8)
								wantHits := 0
								for p, j := range cols {
									if _, written := want[j]; maskSet[j] || written {
										add(j, sc.times(aik, vals[p]))
										wantHits++
									}
								}
								if acc.ScatterMasked(aik, cols, vals) != wantHits {
									return false
								}
							}
						}
						cols, vals := acc.Gather(mask, nil, nil)
						got := map[sparse.Index]float64{}
						for p, j := range cols {
							got[j] = vals[p]
						}
						for j, v := range want {
							if maskSet[j] {
								if g, ok := got[j]; !ok || g != v {
									return false
								}
							} else if _, ok := got[j]; ok {
								return false
							}
						}
						if len(cols) > len(want) {
							return false
						}
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
					t.Error(err)
				}
				watch.require(t, cfg.kind, cfg.bits, true)
			})
		}
	}
}

// TestAccumulatorMaskedOnlyProperty drives every accumulator kind —
// including SortList — under every oracle semiring through the exact
// protocol the MaskLoad kernel uses (mask load, then only ScatterMasked
// over B rows) and compares with a map, hit counts included.
func TestAccumulatorMaskedOnlyProperty(t *testing.T) {
	for _, sc := range oracleSemirings() {
		for _, cfg := range allKinds() {
			t.Run(sc.name+"/"+cfg.name, func(t *testing.T) {
				var watch markerWatch
				f := func(seed int64) bool {
					r := rand.New(rand.NewSource(seed))
					const n = 48
					acc := sc.newAcc(cfg.kind, cfg.bits, n, 12)
					defer watch.note(acc)
					for row := 0; row < 12; row++ {
						skipRows(acc, r)
						acc.BeginRow()
						mask, maskSet := randomMask(r, n, 6)
						acc.LoadMask(mask)
						want := map[sparse.Index]float64{}
						for op := 0; op < 6; op++ {
							aik := sc.value(r)
							cols, vals := sc.bRow(r, n, 8)
							wantHits := 0
							for p, j := range cols {
								if !maskSet[j] {
									continue
								}
								x := sc.times(aik, vals[p])
								if v, ok := want[j]; ok {
									want[j] = sc.plus(v, x)
								} else {
									want[j] = x
								}
								wantHits++
							}
							if acc.ScatterMasked(aik, cols, vals) != wantHits {
								return false
							}
						}
						cols, vals := acc.Gather(mask, nil, nil)
						if len(cols) != len(want) {
							return false
						}
						for p, j := range cols {
							if want[j] != vals[p] {
								return false
							}
						}
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
					t.Error(err)
				}
				watch.require(t, cfg.kind, cfg.bits, false)
			})
		}
	}
}

func TestGatherOrderFollowsMask(t *testing.T) {
	for _, cfg := range allKinds() {
		t.Run(cfg.name, func(t *testing.T) {
			acc := newAcc(cfg.kind, cfg.bits, 64, 16)
			acc.BeginRow()
			mask := []sparse.Index{4, 9, 17, 33, 50}
			acc.LoadMask(mask)
			acc.ScatterMasked(1, []sparse.Index{50, 4, 17}, []float64{1, 1, 1})
			cols, _ := acc.Gather(mask, nil, nil)
			if !sort.SliceIsSorted(cols, func(a, b int) bool { return cols[a] < cols[b] }) {
				t.Errorf("gather output unsorted: %v", cols)
			}
		})
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid marker bits did not panic")
		}
	}()
	newAcc(DenseKind, 12, 8, 4)
}
