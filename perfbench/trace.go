package main

import (
	"sort"
	"time"
)

// tracer records the benchmark's own spans around its calls into each
// layer. It keeps them in memory; the traced run writes them out at exit.
// A nil tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	origin time.Time
	spans  []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the time children cover
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// finish fills every span's self time and returns the spans.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	setSelfTimes(t.spans)
	return t.spans
}

// setSelfTimes sets each span's Self to its duration minus the union of
// its children's intervals, so overlapping children are not counted twice.
func setSelfTimes(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		kids := children[spans[i].ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach int64
		reach = spans[i].Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, spans[i].End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}
