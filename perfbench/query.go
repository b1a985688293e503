package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/experiments"
	"repro/internal/od"
	"repro/internal/od/odrpc"
)

// queryDiscs is the size of the query workload's CD corpus.
func queryDiscs(small bool) int {
	if small {
		return 150
	}
	return 2000
}

// queryPartitions is the federation's member count.
const queryPartitions = 3

// queryReps is how many fresh federations a run replays the script on;
// ops_per_s is the median of their rates.
const queryReps = 5

// cdODs flattens generated FreeDB discs into object descriptions the
// way the describe stage would.
func cdODs(n int, seed int64) []*od.OD {
	cds := datagen.FreeDB(n, corpusSeed)
	rand.New(rand.NewSource(seed)).Shuffle(len(cds), func(i, j int) { cds[i], cds[j] = cds[j], cds[i] })
	out := make([]*od.OD, 0, len(cds))
	for i, cd := range cds {
		o := &od.OD{Object: fmt.Sprintf("/freedb/disc[%d]", i+1)}
		add := func(value, name, typ string) {
			if value != "" {
				o.Tuples = append(o.Tuples, od.Tuple{Value: value, Name: name, Type: typ})
			}
		}
		add(cd.DID, "/freedb/disc/did", "DISCID")
		add(cd.Artist, "/freedb/disc/artist", "ARTIST")
		add(cd.Title, "/freedb/disc/title", "CDTITLE")
		add(cd.Genre, "/freedb/disc/genre", "GENRE")
		add(strconv.Itoa(cd.Year), "/freedb/disc/year", "YEAR")
		for _, tr := range cd.Tracks {
			add(tr, "/freedb/disc/tracks/title", "TRACKTITLE")
		}
		out = append(out, o)
	}
	return out
}

// Lookup classes, for the per-class latency figures: exact lookups are
// routed to one member; similar-value lookups on indexed types (disc
// IDs, genres, years) fan out to the members' neighbourhood indexes;
// those on unindexed types (artist names, disc and track titles) or
// beyond a type's edit budget fall back to scans.
var lookupClasses = []string{"exact", "indexed", "unindexed"}

const (
	classExact = iota
	classIndexed
	classUnindexed
)

// lookup is one index query: an exact or a similar-value lookup of one
// key.
type lookup struct {
	exact bool
	t     od.Tuple
}

// The script's traffic is the lookups the update pipeline makes when a
// document arrives: for every distinct key of the new object, one
// ObjectsWithExact and one SimilarValues (the dirty closure of
// core.Detector.Update). So the mix of lookup types and classes is the
// corpus's own mix of tuple types, not a chosen share. Each arriving
// disc is a corpus disc as a second source would deliver it, with the
// paper's Dataset 1 per-value typo rate (dirty.Dataset1Params). Which
// disc arrives is drawn Zipf-skewed over a seeded shuffle of the corpus;
// the skew parameters are an assumption.
const (
	zipfS = 1.1
	zipfV = 5000
)

// queryScript is the seeded sequence of arriving discs, each expanded
// into its lookups. reset restarts the same sequence.
type queryScript struct {
	seed  int64
	discs []*od.OD
	typo  float64
	rng   *rand.Rand
	zipf  *rand.Zipf
}

func newQueryScript(ods []*od.OD, seed int64) *queryScript {
	discs := append([]*od.OD(nil), ods...)
	rand.New(rand.NewSource(seed^0x9e37)).Shuffle(len(discs), func(i, j int) { discs[i], discs[j] = discs[j], discs[i] })
	s := &queryScript{seed: seed, discs: discs, typo: dirty.Dataset1Params().TypoPct}
	s.reset()
	return s
}

func (s *queryScript) reset() {
	s.rng = rand.New(rand.NewSource(s.seed ^ 0x2545))
	s.zipf = rand.NewZipf(s.rng, zipfS, zipfV, uint64(len(s.discs)-1))
}

// next returns the lookups of the next arriving disc, distinct keys in
// tuple order, each key's exact lookup before its similar-value one.
func (s *queryScript) next() []lookup {
	d := s.discs[s.zipf.Uint64()]
	seen := map[od.Tuple]bool{}
	var out []lookup
	for _, t := range d.Tuples {
		if s.rng.Float64() < s.typo {
			t.Value = typo(s.rng, t.Value)
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, lookup{exact: true, t: t}, lookup{t: t})
	}
	return out
}

// federation is the query workload's store: members behind loopback
// odrpc transports, each a MemStore.
type federation struct {
	fed     *od.PartitionedStore
	clients []*odrpc.Client
}

// buildFederation builds a 3-member federation over copies of ods and
// finalizes it (which fetches the members' routing filters). With tr
// set, every member is wrapped so its calls record spans under at.
func buildFederation(ods []*od.OD, tr *tracer, at *current) *federation {
	f := &federation{}
	parts := make([]od.Partition, queryPartitions)
	for i := range parts {
		c := odrpc.NewLoopback(od.NewMemStore())
		f.clients = append(f.clients, c)
		parts[i] = c
		if tr != nil {
			parts[i] = tracedPartition{Partition: c, tr: tr, at: at}
		}
	}
	f.fed = od.NewPartitionedStore(parts, 0)
	fill(f.fed, ods)
	return f
}

func (f *federation) wire() od.WireStats {
	var w od.WireStats
	for _, c := range f.clients {
		s := c.WireStats()
		w.RoundTrips += s.RoundTrips
		w.BytesIn += s.BytesIn
		w.BytesOut += s.BytesOut
		w.FramesIn += s.FramesIn
		w.FramesOut += s.FramesOut
	}
	return w
}

func fill(s od.Store, ods []*od.OD) {
	for _, o := range ods {
		cp := *o
		s.Add(&cp)
	}
	s.Finalize(experiments.ThetaTuple)
}

// sameMatches reports whether two similar-value answers are identical:
// same values, same distance bits, same object lists, same order.
func sameMatches(a, b []od.ValueMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) || !sameIDs(a[i].Objects, b[i].Objects) {
			return false
		}
	}
	return true
}

func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queryPass is what one pass over the script measured.
type queryPass struct {
	closures       []float64 // ms per arriving disc: all its lookups
	lookups        int
	byClass        [][]float64 // ms per lookup, by lookupClasses
	simMS, exactMS float64
	sims, exacts   int
	unidx          int
	unidxMS        float64
	cache0, cache1 map[string]od.CacheStats
	route0, route1 od.RoutingStats
	wire0, wire1   od.WireStats
	rt             rtDelta
}

// queryRun drives one closed-loop client over script, from where the
// script stands, until the deadline (or, with limit > 0, for exactly
// limit discs). Each disc's lookups run
// one after another, as the update pipeline issues them; the answers are
// checked against the reference store once the disc has been timed.
func queryRun(f *federation, ref *refAnswers, cov *indexCoverage, script *queryScript, deadline time.Time, limit int, tr *tracer, at *current, o *outcome) *queryPass {
	p := &queryPass{cache0: f.fed.CacheStats(), route0: f.fed.RoutingStats(), wire0: f.wire(), byClass: make([][]float64, len(lookupClasses))}
	runtime.GC()
	rt0 := readRuntime()
	var (
		matches [][]od.ValueMatch
		idLists [][]int32
		lat     []float64
	)
	for i := 0; ; i++ {
		if limit > 0 && i >= limit || limit == 0 && !time.Now().Before(deadline) {
			break
		}
		ls := script.next()
		matches, idLists, lat = matches[:0], idLists[:0], lat[:0]
		var root, rootStart int64
		if tr != nil {
			root, rootStart = tr.newID(), tr.now()
		}
		t0 := time.Now()
		for _, q := range ls {
			var id, start int64
			if tr != nil {
				id, start = tr.newID(), tr.now()
				at.set(id, root)
			}
			l0 := time.Now()
			var (
				m []od.ValueMatch
				x []int32
			)
			if q.exact {
				x = f.fed.ObjectsWithExact(q.t)
			} else {
				m = f.fed.SimilarValues(q.t)
			}
			lat = append(lat, float64(time.Since(l0).Nanoseconds())/1e6)
			if tr != nil {
				name := spanSimilar
				if q.exact {
					name = spanExact
				}
				tr.add(span{id: id, parent: root, trace: root, name: name, start: start, end: tr.now()})
			}
			matches, idLists = append(matches, m), append(idLists, x)
		}
		p.closures = append(p.closures, float64(time.Since(t0).Nanoseconds())/1e6)
		if tr != nil {
			tr.add(span{id: root, trace: root, name: spanClosure, start: rootStart, end: tr.now()})
		}
		for j, q := range ls {
			p.lookups++
			if q.exact {
				p.exacts++
				p.exactMS += lat[j]
				p.byClass[classExact] = append(p.byClass[classExact], lat[j])
				if want := ref.exact(q.t); !sameIDs(idLists[j], want) {
					o.fail("ObjectsWithExact(%s %q): %v, reference %v", q.t.Type, q.t.Value, idLists[j], want)
				}
				continue
			}
			p.sims++
			p.simMS += lat[j]
			class := classIndexed
			if cov.unindexed(q.t) {
				class = classUnindexed
				p.unidx++
				p.unidxMS += lat[j]
			}
			p.byClass[class] = append(p.byClass[class], lat[j])
			if want := ref.similar(q.t); !sameMatches(matches[j], want) {
				o.fail("SimilarValues(%s %q): %d matches, reference %d, or they differ", q.t.Type, q.t.Value, len(matches[j]), len(want))
			}
		}
	}
	p.rt = rt0.to(readRuntime())
	p.cache1, p.route1, p.wire1 = f.fed.CacheStats(), f.fed.RoutingStats(), f.wire()
	return p
}

// runQuery is the federated index-lookup workload. See README.md.
func runQuery(ctx context.Context, rc runConfig) (*outcome, error) {
	o := newOutcome()
	n := queryDiscs(rc.small)
	ods := cdODs(n, rc.seed)
	mem := od.NewMemStore()
	fill(mem, ods)
	cov := newIndexCoverage(mem)
	ref := &refAnswers{s: mem, sim: map[od.Tuple][]od.ValueMatch{}, ex: map[od.Tuple][]int32{}}
	script := newQueryScript(ods, rc.seed)

	// Set-up: build the federation several times; setup_s is the median
	// build. The last one built serves the first repetition.
	var (
		setups []float64
		fed    *federation
	)
	build := func() {
		if fed != nil {
			fed.fed.Close()
		}
		runtime.GC()
		t0 := time.Now()
		fed = buildFederation(ods, nil, nil)
		setups = append(setups, secs(time.Since(t0)))
	}
	for i := 0; i < setupReps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		build()
	}

	// Each repetition continues the script on a fresh federation for its
	// share of the run, so a run covers as many different discs as it
	// has time for and no repetition finds the coordinator's caches
	// warmed by an earlier one.
	script.reset()
	reps := queryReps
	if rc.trace {
		reps = 1
	}
	var passes []*queryPass
	for rep := 0; rep < reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rep > 0 {
			build()
		}
		share := 1 / float64(reps)
		if rc.trace {
			share = 0.4
		}
		passes = append(passes, queryRun(fed, ref, cov, script, rc.deadline(share), 0, nil, nil, o))
	}
	capacity := fed.fed.CacheStats()
	var closures, rates []float64
	for _, p := range passes {
		closures = append(closures, p.closures...)
		rates = append(rates, ratio(float64(len(p.closures)), sum(p.closures)/1e3))
		o.attempted += int64(p.lookups)
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["op_p50_ms"] = median(closures)
	o.e2e["ops_per_s"] = median(rates)
	o.e2e["retained_heap_mb"] = retainedMB(func() { fed.fed.Close(); fed = nil })

	var all []float64
	for c, name := range lookupClasses {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.byClass[c]...)
		}
		all = append(all, xs...)
		o.detail[name+"_us"] = scaled(summarize(xs), 1e3)
	}
	o.detail["setup_s"] = summarize(setups)
	o.detail["disc_ms"] = summarize(closures)
	o.detail["query_us"] = scaled(summarize(all), 1e3)
	o.detail["discs_per_s"] = rates
	o.env["discs"] = n
	o.env["ods"] = len(ods)
	o.env["partitions"] = queryPartitions
	o.env["distinct_similar_keys"] = len(ref.sim)
	o.env["distinct_exact_keys"] = len(ref.ex)
	o.env["sim_cache_capacity"] = capacity["sim"].Capacity
	o.env["occ_cache_capacity"] = capacity["occ"].Capacity
	o.env["arriving_discs"] = len(closures)
	o.env["lookups"] = len(all)
	o.env["typo_rate"] = script.typo
	o.env["clients"] = 1

	if !rc.trace {
		return o, nil
	}
	// The first pass filled the reference cache for the script's
	// prefix; the untraced and traced passes below replay exactly that
	// prefix on fresh federations, so neither pays for reference scans
	// and the difference between them is the tracing overhead.
	count := len(passes[0].closures)
	pf := buildFederation(ods, nil, nil)
	script.reset()
	plain := queryRun(pf, ref, cov, script, time.Time{}, count, nil, nil, o)
	pf.fed.Close()
	tr := newTracer()
	at := &current{}
	tf := buildFederation(ods, tr, at)
	script.reset()
	traced := queryRun(tf, ref, cov, script, time.Time{}, count, tr, at, o)
	tf.fed.Close()
	o.attempted += int64(plain.lookups + traced.lookups)
	o.spans = tr.all()
	queryLayers(o, o.spans, traced, plain)
	o.detail["traced_disc_ms"] = summarize(traced.closures)
	return o, nil
}

// scaled converts a summary's values by factor (ms to µs).
func scaled(s summary, factor float64) summary {
	s.P50 *= factor
	s.Tail *= factor
	s.Mean *= factor
	return s
}

// queryLayers derives the layer metrics, per arriving disc unless the
// name says per lookup, from the traced pass, and the runtime ones
// from the untraced pass.
func queryLayers(o *outcome, spans []span, traced, plain *queryPass) {
	discs := float64(len(traced.closures))
	lookups := float64(traced.lookups)
	o.layers["od.similar_values_calls"] = ratio(float64(traced.sims), discs)
	o.layers["od.similar_values_s"] = ratio(traced.simMS/1e3, discs)
	o.layers["od.exact_calls"] = ratio(float64(traced.exacts), discs)
	o.layers["od.exact_s"] = ratio(traced.exactMS/1e3, discs)
	o.layers["od.unindexed_query_frac"] = ratio(float64(traced.unidx), float64(traced.sims))
	o.layers["od.unindexed_query_s"] = ratio(traced.unidxMS/1e3, discs)
	sim0, sim1 := traced.cache0["sim"], traced.cache1["sim"]
	hits, misses := float64(sim1.Hits-sim0.Hits), float64(sim1.Misses-sim0.Misses)
	o.layers["od.sim_cache_hit_rate"] = ratio(hits, hits+misses)
	skips := float64(traced.route1.MemberSkips - traced.route0.MemberSkips)
	queries := float64(traced.route1.MemberQueries - traced.route0.MemberQueries)
	o.layers["od.routing_skip_rate"] = ratio(skips, skips+queries)
	o.layers["od.member_queries_per_lookup"] = ratio(queries, lookups)
	o.layers["odrpc.round_trips_per_lookup"] = ratio(float64(traced.wire1.RoundTrips-traced.wire0.RoundTrips), lookups)
	o.layers["odrpc.bytes_per_lookup"] = ratio(float64(traced.wire1.BytesIn+traced.wire1.BytesOut-traced.wire0.BytesIn-traced.wire0.BytesOut), lookups)
	var member int64
	for _, s := range spans {
		if s.name == spanMemberCall {
			member += s.dur()
		}
	}
	o.layers["odrpc.call_s"] = ratio(float64(member)/1e9, discs)
	o.layers["runtime.gc_cycles"] = ratio(plain.rt.gcCycles, float64(len(plain.closures)))
	o.layers["runtime.gc_cpu_frac"] = plain.rt.gcCPUFrac
	o.layers["trace.overhead_frac"] = median(traced.closures)/median(plain.closures) - 1
}

// refAnswers answers lookups from the reference MemStore, remembering
// each answer so repeated keys are checked without rescanning.
type refAnswers struct {
	s   od.Store
	sim map[od.Tuple][]od.ValueMatch
	ex  map[od.Tuple][]int32
}

func (r *refAnswers) similar(t od.Tuple) []od.ValueMatch {
	a, ok := r.sim[t]
	if !ok {
		a = r.s.SimilarValues(t)
		r.sim[t] = a
	}
	return a
}

func (r *refAnswers) exact(t od.Tuple) []int32 {
	a, ok := r.ex[t]
	if !ok {
		a = r.s.ObjectsWithExact(t)
		r.ex[t] = a
	}
	return a
}
