package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"

	"maskedspgemm/internal/obs"
)

// span is one call the benchmark made into a layer, timed from the
// benchmark's own code. Spans of one operation or probe share a trace.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"` // index of the causing span; -1 for a root
	// Start and End are microseconds since the run began.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	// Counted is the time the program's own stats/v1 recorder
	// attributed to pipeline phases (plan, kernel, assembly, levels,
	// solve) inside the span: the part spent in the layers below.
	Counted float64 `json:"counted_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// self is the span's duration minus the phase time counted inside it,
// in microseconds (child spans are subtracted by selfTimes).
func (s span) self() float64 { return s.dur() - s.Counted }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	traces int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// root opens a span that starts a new trace.
func (t *tracer) root(name string) int {
	t.traces++
	return t.open(name, t.traces, -1)
}

// child opens a span caused by parent, in parent's trace.
func (t *tracer) child(name string, parent int) int {
	return t.open(name, t.spans[parent].Trace, parent)
}

func (t *tracer) open(name string, trace, parent int) int {
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// close ends the span and returns its duration.
func (t *tracer) close(id int) time.Duration {
	t.spans[id].End = t.now()
	return time.Duration(t.spans[id].dur() * float64(time.Microsecond))
}

// end ends the span d after its start: the span covers a call whose
// duration d was measured by the caller, and not what the caller did
// after it returned (checking the result). It returns d.
func (t *tracer) end(id int, d time.Duration) time.Duration {
	t.spans[id].End = t.spans[id].Start + float64(d)/float64(time.Microsecond)
	return d
}

// count attributes recorder phase time (from a stats/v1 delta) to the
// span.
func (t *tracer) count(id int, d obs.Stats) {
	var ms float64
	for _, p := range d.Phases {
		ms += p.Millis
	}
	t.spans[id].Counted += ms * 1000
}

// layerTime is one span name's aggregate: calls, total time and self
// time, the latter being each span's duration minus its child spans and
// the phase time the program's recorder counted inside it.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []layerTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	index := map[string]int{}
	var out []layerTime
	for i, s := range t.spans {
		k, ok := index[s.Name]
		if !ok {
			k = len(out)
			index[s.Name] = k
			out = append(out, layerTime{Name: s.Name})
		}
		out[k].Calls++
		out[k].TotalMs += s.dur() / 1000
		out[k].SelfMs += (s.dur() - child[i] - s.Counted) / 1000
	}
	slices.SortFunc(out, func(a, b layerTime) int {
		switch {
		case a.SelfMs > b.SelfMs:
			return -1
		case a.SelfMs < b.SelfMs:
			return 1
		}
		return 0
	})
	return out
}

// write stores the spans as one JSON document under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
