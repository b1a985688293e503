package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary: start and end in
// nanoseconds since the tracer's epoch, the span that caused it
// (parent, 0 for a root) and the request or Update it belongs to
// (trace, shared by every span of that request).
type span struct {
	id, parent, trace int64
	name              string
	start, end        int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a traced run in memory. Spans are recorded
// from the benchmark's own wrappers around public calls; nothing inside
// the program is instrumented. A nil *tracer records nothing, so
// untraced runs pass nil and pay no cost.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span ID before the span ends, so children can name
// it as their parent while it is still open.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record times fn as a span named name under parent; fn receives the
// span's ID so calls it makes can attach to it.
func (t *tracer) record(name string, parent, trace int64, fn func(id int64)) {
	id := t.newID()
	start := t.now()
	fn(id)
	t.add(span{id: id, parent: parent, trace: trace, name: name, start: start, end: t.now()})
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other (parallel fan-out) and are
// clipped to the parent's interval, so every instant counts once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// layerTotals aggregates spans by name: call count, total duration and
// total self time, all in nanoseconds.
type layerTotals struct {
	calls      int64
	total, own int64
}

// aggregate reduces spans to per-name totals, computing each span's
// self time from its direct children.
func aggregate(spans []span) map[string]*layerTotals {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]*layerTotals{}
	for _, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.name] = lt
		}
		lt.calls++
		lt.total += s.dur()
		lt.own += selfTime(s, kids[s.id])
	}
	return out
}

// writeSpans dumps spans as tab-separated lines (id, parent, trace,
// name, start ns, end ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttrace\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.trace, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
