package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer keeps the spans of one traced pass in memory. Every span is the
// benchmark's own call into one module's exported entry point; nothing
// inside the program is instrumented. A tracer is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int // indices of open spans
	op    int   // id of the operation new spans belong to
}

type span struct {
	name       string
	start, end time.Duration // since epoch
	parent     int           // index of the enclosing span, -1 at top level
	op         int
	alloc      uint64 // heap bytes allocated while open
	allocStart uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, allocStart: heapAllocBytes()})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	t.spans[i].start = time.Since(t.epoch)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	t.spans[i].end = time.Since(t.epoch)
	t.spans[i].alloc = heapAllocBytes() - t.spans[i].allocStart
	t.stack = t.stack[:len(t.stack)-1]
}

// call runs f inside a span.
func (t *tracer) call(name string, f func()) {
	i := t.begin(name)
	f()
	t.end(i)
}

// layerTotals aggregates spans by name.
type layerTotals struct {
	count int
	dur   time.Duration
	alloc uint64
}

func (t *tracer) totals() map[string]layerTotals {
	out := map[string]layerTotals{}
	for _, s := range t.spans {
		lt := out[s.name]
		lt.count++
		lt.dur += s.end - s.start
		lt.alloc += s.alloc
		out[s.name] = lt
	}
	return out
}

// residual sums, over every span named name, its duration minus its
// direct children's: the part of an operation no layer span explains.
func (t *tracer) residual(name string) time.Duration {
	var r time.Duration
	for _, s := range t.spans {
		if s.name == name {
			r += s.end - s.start
		}
		if s.parent >= 0 && t.spans[s.parent].name == name {
			r -= s.end - s.start
		}
	}
	return r
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds). Spans too short for the clock to resolve are
// left out, since a trace viewer rejects zero durations.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	for _, s := range t.spans {
		if s.end <= s.start {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		ev := traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"op": s.op, "alloc_bytes": int(s.alloc)},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
