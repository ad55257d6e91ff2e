package spgemm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
)

// triMatrix builds a random strictly triangular system with a dense
// nonzero diagonal and locality-skewed off-diagonal fill (near-diagonal
// dependencies are likelier, giving multi-level dependency DAGs).
func triMatrix(t *testing.T, n int, lower bool, seed int64) *Matrix {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr := make([]Triple, 0, 8*n)
	for i := 0; i < n; i++ {
		tr = append(tr, Triple{Row: i, Col: i, Val: float64(r.Intn(7) + 2)})
		for j := 0; j < i; j++ {
			if r.Float64() < 1.2/float64(i-j) {
				e := Triple{Row: i, Col: j, Val: 1 + r.Float64()}
				if !lower {
					e.Row, e.Col = e.Col, e.Row
				}
				tr = append(tr, e)
			}
		}
	}
	m, err := FromTriples(n, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func rhs(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%17) + 1
	}
	return b
}

func equalVec(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: x[%d] = %v, want %v (bit-identical)", label, i, got[i], want[i])
		}
	}
}

// TestTRSVWavesMatchSerial requires the wave schedule to be
// bit-identical to the serial substitution loop across triangles,
// schedules, and masking, through the public facade.
func TestTRSVWavesMatchSerial(t *testing.T) {
	const n = 300
	b := rhs(n)
	mask := make([]int32, 0, n/2)
	for i := int32(1); int(i) < n; i += 2 {
		mask = append(mask, i)
	}
	for _, lower := range []bool{true, false} {
		tri := TriLower
		if !lower {
			tri = TriUpper
		}
		l := triMatrix(t, n, lower, 7)
		serial := Defaults()
		serial.LevelSchedule = LevelSerial
		for _, m := range [][]int32{nil, mask} {
			want, err := TRSVMasked(l, b, tri, m, serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range []Schedule{SchedDynamic, SchedStatic, SchedGuided} {
				opts := Defaults()
				opts.LevelSchedule = LevelWaves
				opts.Schedule = sched
				opts.Workers = 4
				opts.Engine = NewEngine(EngineConfig{})
				got, err := TRSVMasked(l, b, tri, m, opts)
				if err != nil {
					t.Fatalf("tri=%v sched=%d masked=%v: %v", tri, sched, m != nil, err)
				}
				equalVec(t, want, got, "wave solve")
				// Warm run off the cached plan must agree too.
				got2, err := TRSVMasked(l, b, tri, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				equalVec(t, want, got2, "cached wave solve")
				if err := opts.Engine.SelfCheck(); err != nil {
					t.Fatalf("engine self-check: %v", err)
				}
			}
		}
	}
}

// TestTRSVAutoSchedule runs the default LevelAuto path (model-predicted
// knobs) end to end and checks it agrees with serial.
func TestTRSVAutoSchedule(t *testing.T) {
	l := triMatrix(t, 257, true, 9)
	b := rhs(257)
	serial := Defaults()
	serial.LevelSchedule = LevelSerial
	want, err := TRSV(l, b, TriLower, serial)
	if err != nil {
		t.Fatal(err)
	}
	auto := Defaults()
	auto.Workers = 4
	got, err := TRSV(l, b, TriLower, auto)
	if err != nil {
		t.Fatal(err)
	}
	equalVec(t, want, got, "auto solve")
	// Out-of-mask rows pass b through unchanged.
	masked, err := TRSVMasked(l, b, TriLower, []int32{3, 4, 10}, auto)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range masked {
		if i != 3 && i != 4 && i != 10 && v != b[i] {
			t.Fatalf("out-of-mask row %d rewritten: %v != %v", i, v, b[i])
		}
	}
}

// TestTRSVErrors walks the facade error taxonomy for solves.
func TestTRSVErrors(t *testing.T) {
	l := triMatrix(t, 32, true, 3)
	b := rhs(32)
	opts := Defaults()

	// Upper solve on a lower-triangular operand: wrong-side entries.
	if _, err := TRSV(l, b, TriUpper, opts); !errors.Is(err, ErrNotTriangular) {
		t.Fatalf("wrong triangle: %v, want ErrNotTriangular", err)
	}
	// Missing diagonal.
	sing, err := FromTriples(4, 4, []Triple{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TRSV(sing, rhs(4), TriLower, opts); !errors.Is(err, ErrSingular) {
		t.Fatalf("missing diagonal: %v, want ErrSingular", err)
	}
	// Numerically zero diagonal.
	zero, err := FromTriples(3, 3, []Triple{{0, 0, 1}, {1, 1, 0}, {2, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TRSV(zero, rhs(3), TriLower, opts); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero diagonal: %v, want ErrSingular", err)
	}
	// Shape mismatch.
	if _, err := TRSV(l, rhs(5), TriLower, opts); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: %v, want ErrShape", err)
	}
	// Bad enums.
	if _, err := TRSV(l, b, Triangle(9), opts); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad triangle: %v, want ErrConfig", err)
	}
	bad := Defaults()
	bad.LevelSchedule = LevelSchedule(9)
	if _, err := TRSV(l, b, TriLower, bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad level schedule: %v, want ErrConfig", err)
	}
	// Malformed mask.
	if _, err := TRSVMasked(l, b, TriLower, []int32{5, 2}, opts); !errors.Is(err, ErrInvalidMatrix) {
		t.Fatalf("descending mask: %v, want ErrInvalidMatrix", err)
	}
	// Validated nil operand.
	vo := Defaults()
	vo.ValidateInputs = true
	if _, err := TRSV(nil, b, TriLower, vo); !errors.Is(err, ErrInvalidMatrix) {
		t.Fatalf("nil operand: %v, want ErrInvalidMatrix", err)
	}
}

// TestTRSVWaveBarrierChaos is the seeded chaos-matrix cell for the
// wave-barrier seam: across seeds and fault kinds injected at
// chaos.WaveBarrier, every TRSV outcome must be either a typed error
// matching chaos.ErrInjected or a result bit-identical to the fault-free
// reference — never a silently wrong vector — and the engine pool must
// pass SelfCheck after every injection.
func TestTRSVWaveBarrierChaos(t *testing.T) {
	const n = 300
	l := triMatrix(t, n, true, 21)
	b := rhs(n)
	serial := Defaults()
	serial.LevelSchedule = LevelSerial
	want, err := TRSV(l, b, TriLower, serial)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(EngineConfig{})
	cells := []struct {
		kind  chaos.Kind
		after int64
		delay time.Duration
	}{
		{chaos.KindPanic, 1, 0},
		{chaos.KindPanic, 3, 0},
		{chaos.KindCancel, 2, 0},
		{chaos.KindDelay, 1, 2 * time.Millisecond},
		{chaos.KindDelay, 4, time.Millisecond},
	}
	for _, seed := range []int64{501, 502, 503} {
		for _, cell := range cells {
			sd := chaos.NewSeeded(seed)
			sd.Arm(chaos.WaveBarrier, cell.kind, cell.after, cell.delay)
			opts := Defaults()
			opts.LevelSchedule = LevelWaves
			opts.Workers = 4
			opts.Engine = eng
			opts.chaos = sd
			got, err := TRSV(l, b, TriLower, opts)
			switch {
			case err == nil:
				equalVec(t, want, got, "chaos survivor")
			case errors.Is(err, chaos.ErrInjected):
				if !errors.Is(err, ErrPanic) && !errors.Is(err, ErrCanceled) {
					t.Fatalf("seed=%d kind=%v: untyped injected error %v", seed, cell.kind, err)
				}
			default:
				t.Fatalf("seed=%d kind=%v: non-injected failure %v", seed, cell.kind, err)
			}
			if err := eng.SelfCheck(); err != nil {
				t.Fatalf("seed=%d kind=%v: pool invariants broken: %v", seed, cell.kind, err)
			}
		}
	}
	// The shared engine must still serve clean solves after the storm.
	opts := Defaults()
	opts.LevelSchedule = LevelWaves
	opts.Workers = 4
	opts.Engine = eng
	got, err := TRSV(l, b, TriLower, opts)
	if err != nil {
		t.Fatalf("post-chaos solve: %v", err)
	}
	equalVec(t, want, got, "post-chaos solve")
}

// scatteredLower builds a lower-triangular system whose off-diagonal
// entries point to uniformly random earlier rows: shallow, wide level
// sets, so a multi-worker LevelAuto solve runs in multi-tile waves.
func scatteredLower(t *testing.T, n, perRow int, seed int64) *Matrix {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr := make([]Triple, 0, (perRow+1)*n)
	for i := 0; i < n; i++ {
		tr = append(tr, Triple{Row: i, Col: i, Val: float64(r.Intn(7) + 2)})
		for k := 0; k < perRow && i > 0; k++ {
			tr = append(tr, Triple{Row: i, Col: r.Intn(i), Val: 1 + r.Float64()})
		}
	}
	m, err := FromTriples(n, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTRSVAutoPredictsOncePerEngine requires repeated warm LevelAuto
// solves on a shared engine to stop missing the plan cache after the
// first call, which has to predict the knobs and build the level plan.
func TestTRSVAutoPredictsOncePerEngine(t *testing.T) {
	l := scatteredLower(t, 2000, 3, 41)
	b := rhs(2000)
	opts := Defaults()
	opts.Workers = 4
	opts.Engine = NewEngine(EngineConfig{})
	if _, err := TRSV(l, b, TriLower, opts); err != nil {
		t.Fatal(err)
	}
	cold := opts.Engine.Stats()
	if cold.PlanMisses != 2 {
		t.Fatalf("first solve missed %d times, want 2 (knob prediction and level plan)", cold.PlanMisses)
	}
	for k := 0; k < 5; k++ {
		if _, err := TRSV(l, b, TriLower, opts); err != nil {
			t.Fatal(err)
		}
	}
	warm := opts.Engine.Stats()
	if warm.PlanMisses != cold.PlanMisses {
		t.Fatalf("warm solves added %d plan misses, want 0", warm.PlanMisses-cold.PlanMisses)
	}
	if hits := warm.PlanHits - cold.PlanHits; hits != 10 {
		t.Fatalf("5 warm solves made %d plan hits, want 10 (knobs and level plan each)", hits)
	}
}

// TestTRSVAutoMemoAllocs requires a memo hit to allocate nothing: a
// warm LevelAuto solve must allocate exactly as often as the same solve
// run with the predicted knobs and the mode Auto picked (waves on the
// scattered system, serial on the chain) forced through core.
func TestTRSVAutoMemoAllocs(t *testing.T) {
	cases := []struct {
		name string
		l    *Matrix
		mode core.SolveMode
	}{
		{"waves", scatteredLower(t, 20000, 3, 43), core.SolveWaves},
		{"serial", triMatrix(t, 400, true, 45), core.SolveSerial},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.l.Rows()
			b := rhs(n)
			auto := Defaults()
			auto.Workers = 4
			auto.Engine = NewEngine(EngineConfig{})
			so, err := auto.solveOpts(c.l.csr, TriLower, nil)
			if err != nil {
				t.Fatal(err)
			}
			so.Mode = c.mode
			forced := func() {
				x := make([]float64, n)
				if err := core.SolveTriInto[float64, semiring.PlusTimes[float64]](
					semiring.PlusTimes[float64]{}, x, c.l.csr, b, auto.config(), so); err != nil {
					t.Fatal(err)
				}
			}
			autoSolve := func() {
				if _, err := TRSV(c.l, b, TriLower, auto); err != nil {
					t.Fatal(err)
				}
			}
			forced()
			autoSolve()
			const runs = 50
			want := testing.AllocsPerRun(runs, forced)
			got := testing.AllocsPerRun(runs, autoSolve)
			t.Logf("%.0f allocations per warm solve", got)
			if got != want {
				t.Fatalf("warm LevelAuto solve allocates %.0f times, forced %s solve %.0f; the memo hit must add 0",
					got, c.name, want)
			}
		})
	}
}

// TestTRSVAutoMemoKeys requires every (triangle, mask, workers)
// combination on one engine to get its own prediction, and every
// result to match LevelSerial bit for bit.
func TestTRSVAutoMemoKeys(t *testing.T) {
	const n = 600
	b := rhs(n)
	mask := make([]int32, 0, n/3)
	for i := int32(0); int(i) < n; i += 3 {
		mask = append(mask, i)
	}
	ops := map[Triangle]*Matrix{
		TriLower: triMatrix(t, n, true, 47),
		TriUpper: triMatrix(t, n, false, 47),
	}
	eng := NewEngine(EngineConfig{})
	serial := Defaults()
	serial.LevelSchedule = LevelSerial
	for _, tri := range []Triangle{TriLower, TriUpper} {
		for _, m := range [][]int32{nil, mask} {
			for _, workers := range []int{1, 2, 4} {
				want, err := TRSVMasked(ops[tri], b, tri, m, serial)
				if err != nil {
					t.Fatal(err)
				}
				opts := Defaults()
				opts.Workers = workers
				opts.Engine = eng
				before := eng.Stats().PlanMisses
				got, err := TRSVMasked(ops[tri], b, tri, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("tri=%v masked=%v workers=%d", tri, m != nil, workers)
				equalVec(t, want, got, label)
				// A new key misses for its prediction; the level plan may
				// be shared with an earlier key whose knobs matched.
				if misses := eng.Stats().PlanMisses - before; misses < 1 {
					t.Fatalf("%s: reused another key's prediction (no plan miss)", label)
				}
				before = eng.Stats().PlanMisses
				again, err := TRSVMasked(ops[tri], b, tri, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				equalVec(t, want, again, label+" warm")
				if misses := eng.Stats().PlanMisses - before; misses != 0 {
					t.Fatalf("%s: warm solve missed %d times, want 0", label, misses)
				}
			}
		}
	}
}

// failStores fails every plan-cache store, so the engine caches nothing.
type failStores struct{}

func (failStores) Decide(p chaos.Point) chaos.Fault {
	if p == chaos.PlanStore {
		return chaos.Fault{Kind: chaos.KindError}
	}
	return chaos.Fault{}
}

// TestTRSVAutoPlanStoreFault injects a fault at every plan store: the
// knob memo then degrades to per-call prediction (every solve misses
// again) and results stay bit-identical to a healthy engine's.
func TestTRSVAutoPlanStoreFault(t *testing.T) {
	const n = 3000
	l := scatteredLower(t, n, 3, 49)
	b := rhs(n)
	healthy := Defaults()
	healthy.Workers = 4
	healthy.Engine = NewEngine(EngineConfig{})
	want, err := TRSV(l, b, TriLower, healthy)
	if err != nil {
		t.Fatal(err)
	}
	faulty := healthy
	faulty.Engine = &Engine{eng: exec.New(exec.Config{Chaos: failStores{}})}
	for k := 1; k <= 3; k++ {
		got, err := TRSV(l, b, TriLower, faulty)
		if err != nil {
			t.Fatalf("solve %d under plan-store faults: %v", k, err)
		}
		equalVec(t, want, got, "plan-store fault")
		st := faulty.Engine.Stats()
		if st.PlanHits != 0 || st.PlanMisses != int64(2*k) {
			t.Fatalf("solve %d: %d hits, %d misses; want 0 hits, %d misses (nothing cached)",
				k, st.PlanHits, st.PlanMisses, 2*k)
		}
	}
	if err := faulty.Engine.SelfCheck(); err != nil {
		t.Fatalf("engine self-check: %v", err)
	}
}
