package main

import (
	"fmt"

	"maskedspgemm/internal/sparse"
	"maskedspgemm/spgemm"
)

// workload is one named input set and the facade call it drives.
type workload struct {
	name string
	why  string
	// setup generates the operands from the seed, builds the facade
	// matrices, the shared engine (if any) and the reference result. The
	// shift shrinks every graph (0 is benchmark scale).
	setup func(seed uint64, shift int) (*instance, error)
}

// instance is one set-up workload.
type instance struct {
	// op names the facade entry point; it names the call spans too.
	op string
	// opts are the timed call's options: Defaults, plus the shared
	// Engine on the warm workloads.
	opts   spgemm.Options
	inputs []operand
	// call makes one operation through the facade and keeps its result.
	call func(o spgemm.Options) error
	// check compares the kept result's checksum with the reference and
	// drops the result. It allocates nothing, so it may run between
	// timed calls without disturbing the allocation counts.
	check func() bool
	probe probeInputs
}

// probeInputs are the operands the traced run's layer probes use, all
// taken from the workload's own generated graphs.
type probeInputs struct {
	// graph is the masked product's operand: probes compute
	// C = G ⊙ (G×G).
	graph *sparse.CSR[float64]
	// pair selects the plus-pair semiring (the triangle kernels);
	// otherwise plus-times.
	pair bool
	// systems are the lower-triangular solve operands with their
	// right-hand sides; nil derives one from graph.
	systems []system
}

type system struct {
	l *sparse.CSR[float64]
	b []float64
}

// referenceOptions is the independent configuration the reference is
// computed with: one worker, mask-load iteration, dense accumulator, no
// engine.
func referenceOptions() spgemm.Options {
	o := spgemm.Defaults()
	o.Workers = 1
	o.Iteration = spgemm.IterMaskLoad
	o.Accumulator = spgemm.AccDense
	return o
}

// withEngine returns Defaults with a fresh shared engine attached.
func withEngine() spgemm.Options {
	o := spgemm.Defaults()
	o.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	return o
}

var workloads = []workload{
	{
		name: "oneshot-road",
		why:  "MxM with no engine on a road graph: tiny rows, so per-call planning, workspace construction and assembly dominate",
		setup: func(seed uint64, shift int) (*instance, error) {
			g := roadSim.generate(shift, seed)
			a, err := facade(g)
			if err != nil {
				return nil, err
			}
			ref, err := spgemm.MxM(a, a, a, referenceOptions())
			if err != nil {
				return nil, fmt.Errorf("reference MxM: %w", err)
			}
			want := matrixSum(ref)
			var got *spgemm.Matrix
			return &instance{
				op:     "spgemm.MxM",
				opts:   spgemm.Defaults(),
				inputs: []operand{productOperand(roadSim.name, g)},
				call: func(o spgemm.Options) (err error) {
					got, err = spgemm.MxM(a, a, a, o)
					return err
				},
				check: func() bool {
					ok := got != nil && matrixSum(got) == want
					got = nil
					return ok
				},
				probe: probeInputs{graph: g},
			}, nil
		},
	},
	{
		name: "tc-social-warm",
		why:  "triangle count on a skewed social graph with a warm engine: plans and pools always hit, so the kernel and hash accumulator dominate",
		setup: func(seed uint64, shift int) (*instance, error) {
			g := hollywoodSim.generate(shift+2, seed)
			a, err := facade(g)
			if err != nil {
				return nil, err
			}
			want, err := spgemm.TriangleCount(a, referenceOptions())
			if err != nil {
				return nil, fmt.Errorf("reference TriangleCount: %w", err)
			}
			got := int64(-1)
			return &instance{
				op:     "spgemm.TriangleCount",
				opts:   withEngine(),
				inputs: []operand{productOperand(hollywoodSim.name, g)},
				call: func(o spgemm.Options) (err error) {
					got, err = spgemm.TriangleCount(a, o)
					return err
				},
				check: func() bool {
					ok := got == want
					got = -1
					return ok
				},
				probe: probeInputs{graph: g, pair: true},
			}, nil
		},
	},
	{
		name: "trsv-mixed",
		why:  "TRSV with the automatic level schedule on a chain-like circuit and a social graph: one system runs serially, the other in barrier-separated waves",
		setup: func(seed uint64, shift int) (*instance, error) {
			gs := stokesSim.generate(shift, seed)
			gl := liveJournalSim.generate(shift, seed)
			sys := []system{
				{l: lowerSystem(gs), b: rhs(gs.Rows, seed)},
				{l: lowerSystem(gl), b: rhs(gl.Rows, seed+1)},
			}
			ls := make([]*spgemm.Matrix, len(sys))
			want := make([]uint64, len(sys))
			ref := referenceOptions()
			ref.LevelSchedule = spgemm.LevelSerial
			for k, s := range sys {
				m, err := facade(s.l)
				if err != nil {
					return nil, err
				}
				x, err := spgemm.TRSV(m, s.b, spgemm.TriLower, ref)
				if err != nil {
					return nil, fmt.Errorf("reference TRSV: %w", err)
				}
				ls[k], want[k] = m, vectorSum(x)
			}
			got := make([][]float64, solveReps*len(sys))
			return &instance{
				op:   "spgemm.TRSV",
				opts: withEngine(),
				inputs: []operand{
					solveOperand(stokesSim.name, sys[0].l),
					solveOperand(liveJournalSim.name, sys[1].l),
				},
				// One operation solves each system solveReps times, in
				// turn, so every operation costs the same and lasts long
				// enough that the host's short fast and slow spells
				// average out inside it; with one solve each, the median
				// latency jumped between the two from run to run.
				call: func(o spgemm.Options) error {
					for r := 0; r < solveReps; r++ {
						for k, s := range sys {
							x, err := spgemm.TRSV(ls[k], s.b, spgemm.TriLower, o)
							if err != nil {
								return err
							}
							got[r*len(sys)+k] = x
						}
					}
					return nil
				},
				check: func() bool {
					ok := true
					for i := range got {
						ok = ok && got[i] != nil && vectorSum(got[i]) == want[i%len(sys)]
						got[i] = nil
					}
					return ok
				},
				probe: probeInputs{graph: gl, systems: sys},
			}, nil
		},
	},
}

// solveReps is how often one trsv-mixed operation solves each system.
const solveReps = 24

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
