package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/sim"
)

// Span names. Each names the module whose public call it times.
const (
	spanDetect     = "bench.detect" // one repetition: parse plus DetectInputs
	spanParse      = "xmltree.parse"
	spanUpdate     = "core.Update" // one applied Update run, first stage start to last stage end
	spanCompare    = "sim.compare"
	spanFilter     = "sim.filter"
	spanNeighbors  = "od.neighbors"
	spanSimilar    = "od.similar_values"
	spanSoftIDF    = "od.softidf"
	spanExact      = "od.exact"
	spanMemberCall = "odrpc.call"
	spanRequest    = "api.request" // one HTTP request, client side
	spanClosure    = "bench.disc"  // one arriving disc's lookups (query)
)

// stageSpan names the span of one pipeline stage.
func stageSpan(stage string) string { return "core." + stage }

// parentRef is the span new child spans attach to and the trace they
// share.
type parentRef struct{ parent, trace int64 }

// current is a goroutine-safe holder of the open parent span.
type current struct{ v atomic.Pointer[parentRef] }

func (c *current) set(parent, trace int64) { c.v.Store(&parentRef{parent, trace}) }

func (c *current) get() parentRef {
	if p := c.v.Load(); p != nil {
		return *p
	}
	return parentRef{}
}

// stageObserver is a core.Observer that records each pipeline stage as a
// span. With updateRoots set it also records each Update run as a root
// span, from the start of its update stage to the end of its traces
// stage (the last stage of an incremental, persisting Update), so all
// stages of one run share the root's trace; otherwise stages attach to
// whatever parent holds. Stage calls arrive from one goroutine at a
// time (Detect or the service's applier).
type stageObserver struct {
	tr          *tracer
	parent      *current
	updateRoots bool

	mu        sync.Mutex
	root      parentRef
	rootBegin int64
	stageID   int64
	stageBeg  int64
	stage     *current // open stage span, for store calls made by the pipeline itself
	roots     []span   // closed root spans, in order
}

func newStageObserver(tr *tracer, parent *current) *stageObserver {
	return &stageObserver{tr: tr, parent: parent, stage: &current{}}
}

func (o *stageObserver) StageStart(name string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case !o.updateRoots:
		o.root = o.parent.get()
	case name == core.StageUpdate:
		id := o.tr.newID()
		o.root = parentRef{parent: id, trace: id}
		o.rootBegin = o.tr.now()
	}
	o.stageID = o.tr.newID()
	o.stageBeg = o.tr.now()
	o.stage.set(o.stageID, o.root.trace)
}

func (o *stageObserver) StageDone(st core.StageStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	end := o.tr.now()
	o.tr.add(span{id: o.stageID, parent: o.root.parent, trace: o.root.trace, name: stageSpan(st.Name), start: o.stageBeg, end: end})
	o.stage.set(o.root.parent, o.root.trace)
	if o.updateRoots && st.Name == core.StageTraces {
		s := span{id: o.root.parent, trace: o.root.trace, name: spanUpdate, start: o.rootBegin, end: end}
		o.tr.add(s)
		o.roots = append(o.roots, s)
	}
}

// closedRoots returns the root spans closed so far.
func (o *stageObserver) closedRoots() []span {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]span(nil), o.roots...)
}

// tracedStore decorates an od.MutableStore, recording a span for every
// similar-value, exact, softIDF and neighbour lookup. It keeps the full
// MutableStore method set, so the pipeline's type assertion on it sees
// what it would see on the undecorated MemStore. It is only used around
// a MemStore: decorating a store the pipeline asserts a concrete type
// or BatchQueryStore on would change what the program does.
type tracedStore struct {
	od.MutableStore
	tr *tracer
	// at is where spans attach: the open stage span for calls the
	// pipeline makes itself, or a sim wrapper's span (fixed) for calls
	// made from inside the comparator or filter.
	at    *current
	fixed *parentRef
	unidx *unindexedCounter
}

// unindexedCounter counts similar-value lookups the neighbourhood index
// does not cover, and the time they took.
type unindexedCounter struct {
	cov       *indexCoverage
	calls, ns atomic.Int64
	lookups   atomic.Int64
}

func (u *unindexedCounter) observe(t od.Tuple, ns int64) {
	u.lookups.Add(1)
	if u.cov.unindexed(t) {
		u.calls.Add(1)
		u.ns.Add(ns)
	}
}

func (s *tracedStore) where() parentRef {
	if s.fixed != nil {
		return *s.fixed
	}
	return s.at.get()
}

func (s *tracedStore) timed(name string, fn func()) {
	p := s.where()
	s.tr.record(name, p.parent, p.trace, func(int64) { fn() })
}

// under returns a view of s whose spans attach to the given parent.
func (s *tracedStore) under(p parentRef) od.Store {
	c := *s
	c.fixed = &p
	return &c
}

// Finalize builds the indexes, then reads the type statistics the
// unindexed-lookup classification needs.
func (s *tracedStore) Finalize(theta float64) {
	s.MutableStore.Finalize(theta)
	if s.unidx != nil {
		s.unidx.cov = newIndexCoverage(s.MutableStore)
	}
}

func (s *tracedStore) Neighbors(id int32) (out []int32) {
	s.timed(spanNeighbors, func() { out = s.MutableStore.Neighbors(id) })
	return out
}

func (s *tracedStore) SimilarValues(t od.Tuple) (out []od.ValueMatch) {
	s.timed(spanSimilar, func() {
		start := s.tr.now()
		out = s.MutableStore.SimilarValues(t)
		if s.unidx != nil {
			s.unidx.observe(t, s.tr.now()-start)
		}
	})
	return out
}

func (s *tracedStore) ObjectsWithExact(t od.Tuple) (out []int32) {
	s.timed(spanExact, func() { out = s.MutableStore.ObjectsWithExact(t) })
	return out
}

func (s *tracedStore) SoftIDF(a, b od.Tuple) (out float64) {
	s.timed(spanSoftIDF, func() { out = s.MutableStore.SoftIDF(a, b) })
	return out
}

func (s *tracedStore) SoftIDFSingle(t od.Tuple) (out float64) {
	s.timed(spanSoftIDF, func() { out = s.MutableStore.SoftIDFSingle(t) })
	return out
}

// childStore hands a sim wrapper's inner call a store whose spans
// attach under the wrapper's span, when the pipeline's store is traced.
func childStore(store od.Store, p parentRef) od.Store {
	if ts, ok := store.(*tracedStore); ok {
		return ts.under(p)
	}
	return store
}

// tracedComparator times each Step 5 comparison as a span under the
// open stage span.
type tracedComparator struct {
	sim.Comparator
	tr    *tracer
	stage *current
}

func (c tracedComparator) Compare(store od.Store, a, b *od.OD) (score float64) {
	p := c.stage.get()
	c.tr.record(spanCompare, p.parent, p.trace, func(id int64) {
		score = c.Comparator.Compare(childStore(store, parentRef{id, p.trace}), a, b)
	})
	return score
}

// tracedFilter times each Step 4 bound as a span under the open stage
// span.
type tracedFilter struct {
	sim.ObjectFilter
	tr    *tracer
	stage *current
}

func (f tracedFilter) Bound(store od.Store, o *od.OD) (bound float64) {
	p := f.stage.get()
	f.tr.record(spanFilter, p.parent, p.trace, func(id int64) {
		bound = f.ObjectFilter.Bound(childStore(store, parentRef{id, p.trace}), o)
	})
	return bound
}

// tracedPartition decorates one federation member, recording a span per
// member query under the client's open lookup span. The coordinator
// only type-asserts members for wire counters (forwarded here) and for
// snapshotting, which the query workload never does.
type tracedPartition struct {
	od.Partition
	tr *tracer
	at *current
}

func (p tracedPartition) timed(fn func()) {
	r := p.at.get()
	p.tr.record(spanMemberCall, r.parent, r.trace, func(int64) { fn() })
}

func (p tracedPartition) ObjectsWithExact(t od.Tuple) (ids []int32, err error) {
	p.timed(func() { ids, err = p.Partition.ObjectsWithExact(t) })
	return ids, err
}

func (p tracedPartition) SimilarValues(t od.Tuple) (ms []od.ValueMatch, err error) {
	p.timed(func() { ms, err = p.Partition.SimilarValues(t) })
	return ms, err
}

func (p tracedPartition) SimilarValuesBatch(ts []od.Tuple) (out [][]od.ValueMatch, err error) {
	p.timed(func() { out, err = p.Partition.SimilarValuesBatch(ts) })
	return out, err
}

// WireStats forwards the member transport's wire counters.
func (p tracedPartition) WireStats() od.WireStats {
	if wc, ok := p.Partition.(od.WireCounter); ok {
		return wc.WireStats()
	}
	return od.WireStats{}
}

// rtSample is a snapshot of the runtime counters the per-layer
// allocation and GC metrics are deltas of.
type rtSample struct {
	allocObjects, allocBytes uint64
	gcCycles                 uint64
	gcCPU, totalCPU          float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocObjects: u(0), allocBytes: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// rtDelta is the runtime activity between two samples.
type rtDelta struct {
	allocObjects, allocBytes, gcCycles float64
	gcCPUFrac                          float64
}

func (a rtSample) to(b rtSample) rtDelta {
	return rtDelta{
		allocObjects: float64(b.allocObjects - a.allocObjects),
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
		gcCPUFrac:    ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}
