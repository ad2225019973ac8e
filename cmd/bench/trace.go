package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the driver around a call
// into the program: no span is recorded inside the program yet
// (ROADMAP item 4), so a span's self time still contains everything
// the layers below it did.
type span struct {
	id, parent int // parent 0 = root
	name       string
	op         int // op or batch index within its arm; -1 otherwise
	start, end time.Duration
}

// tracer keeps spans in memory; a nil tracer records nothing. Only the
// origin goroutine of a workload records, so there is no locking.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int // stack of open span ids
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) { t.beginOp(name, -1) }

// beginOp opens the span of op number op of its arm.
func (t *tracer) beginOp(name string, op int) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, op: op, start: time.Since(t.t0)})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].end = time.Since(t.t0)
}

// leaf records a finished op or probe call under the innermost open
// span.
func (t *tracer) leaf(name string, op int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{
		id: len(t.spans) + 1, parent: t.open[len(t.open)-1], name: name, op: op, start: s, end: s + d,
	})
}

// traceEvent is one complete event of the Chrome trace format
// (chrome://tracing, ui.perfetto.dev); ts and dur are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// events renders the spans as trace events.
func (t *tracer) events() []traceEvent {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Cat: t.workload, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.id, "parent": s.parent, "workload": t.workload, "op": s.op},
		}
	}
	return events
}

func writeTrace(path string, events []traceEvent) error {
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
