package main

import (
	"sort"
	"time"
)

// Span is one timed call recorded by the benchmark around a layer's
// public function. Start and End are clock readings.
// Parent is the enclosing span (-1 at the root); Op is the span of the
// operation the call belongs to (-1 outside any operation), shared by
// every span under that operation.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory. A disabled tracer records nothing and
// costs one branch per call, so the untraced runs time the same code.
type Tracer struct {
	on    bool
	spans []Span
	stack []int
	op    int
}

// NewTracer returns a tracer that records spans only when on is set.
func NewTracer(on bool) *Tracer {
	return &Tracer{on: on, op: -1}
}

// Begin opens a span under the innermost open one and returns its id
// (-1 when tracing is off).
func (t *Tracer) Begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: t.op, Name: name, Start: clock()})
	t.stack = append(t.stack, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = clock()
	t.stack = t.stack[:len(t.stack)-1]
}

// BeginOp opens an operation span; every span opened until EndOp
// carries its id in Op.
func (t *Tracer) BeginOp(name string) int {
	id := t.Begin(name)
	if id >= 0 {
		t.spans[id].Op = id
		t.op = id
	}
	return id
}

// EndOp closes an operation span opened by BeginOp.
func (t *Tracer) EndOp(id int) {
	t.End(id)
	if id >= 0 {
		t.op = -1
	}
}

// Spans returns the recorded spans in the order they were opened.
func (t *Tracer) Spans() []Span { return t.spans }

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// are counted once, and a child reaching outside its parent is clipped
// to the parent's interval, so a self time is never negative and never
// exceeds the span's own duration.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]Span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
