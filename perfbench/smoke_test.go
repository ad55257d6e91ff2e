package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeConfig runs a workload on tiny inputs through the benchmark's
// own code path, with short loops and a single set-up.
func smokeConfig(workload string, trace bool) config {
	c := defaultConfig()
	c.workload, c.seed, c.trace = workload, 7, trace
	c.seconds, c.minCalls, c.setupReps, c.minSetup, c.shift = 0.05, 3, 1, 0, 5
	return c
}

func runSmoke(t *testing.T, c config) *record {
	t.Helper()
	rec, err := bench(c, newTracer())
	if err != nil {
		t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
	}
	if rec.Samples.Attempted == 0 || rec.Samples.Failed != 0 {
		t.Errorf("%s trace=%v: %d of %d operations failed", c.workload, c.trace, rec.Samples.Failed, rec.Samples.Attempted)
	}
	return rec
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload untraced and twice traced with the same
// seed: all metrics must be emitted with their units, every operation
// must match its reference, and the deterministic counts must repeat.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			checkMetrics(t, runSmoke(t, smokeConfig(w.Name, false)).Metrics, s.EndToEnd)
			a := runSmoke(t, smokeConfig(w.Name, true))
			checkMetrics(t, a.Metrics, s.PerLayer)
			b := runSmoke(t, smokeConfig(w.Name, true))
			if *a.Counts != *b.Counts {
				t.Errorf("counts differ between traced runs with one seed:\n%+v\n%+v", *a.Counts, *b.Counts)
			}
			if a.Counts.ProbeFlops == 0 || a.Counts.ProbeTiles == 0 {
				t.Errorf("product probe recorded no work: %+v", *a.Counts)
			}
		})
	}
}
