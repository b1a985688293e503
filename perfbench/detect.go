package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/xmltree"
)

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median. One set-up takes 20 to 150 ms, so many are cheap, and
// the median of many is steady from run to run.
const setupReps = 25

// detectSize is the number of IMDB movies the detect workload
// deduplicates.
func detectSize(small bool) int {
	if small {
		return 60
	}
	return 1000
}

// detectEnv is everything one detect repetition needs.
type detectEnv struct {
	corpus *movieCorpus
	det    *core.Detector
}

// detectSetup generates the seeded corpus, renders it to XML bytes and
// builds the detector.
func detectSetup(n int, seed int64, cfg core.Config) (*detectEnv, error) {
	corpus, err := buildMovieCorpus(n, seed)
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetector(movieMapping(), cfg)
	if err != nil {
		return nil, err
	}
	return &detectEnv{corpus: corpus, det: det}, nil
}

// detectOnce is one repetition: parse the XML bytes, then DetectInputs.
// With tr set, the parse and the whole call are recorded as spans.
func (e *detectEnv) detectOnce(tr *tracer, at *current) (*core.Result, time.Duration, error) {
	var (
		res *core.Result
		err error
	)
	t0 := time.Now()
	run := func(root int64) {
		var doc *xmltree.Document
		parse := func() { doc, err = xmltree.Parse(bytes.NewReader(e.corpus.xml)) }
		if tr != nil {
			tr.record(spanParse, root, root, func(int64) { parse() })
			at.set(root, root)
		} else {
			parse()
		}
		if err != nil {
			return
		}
		res, err = e.det.DetectInputs("MOVIE", core.DocSource{Name: "imdb", Doc: doc})
	}
	if tr != nil {
		id := tr.newID()
		start := tr.now()
		run(id)
		tr.add(span{id: id, trace: id, name: spanDetect, start: start, end: tr.now()})
	} else {
		run(0)
	}
	return res, time.Since(t0), err
}

// runDetect is the one-shot batch workload: Dataset 2's IMDB movies as
// XML bytes, parsed and detected on a MemStore with the Step 4 filter on
// and Workers = GOMAXPROCS, one closed call per repetition. Every
// repetition's output must equal a Workers = 1 reference.
func runDetect(ctx context.Context, rc runConfig) (*outcome, error) {
	n := detectSize(rc.small)
	o := newOutcome()

	var env *detectEnv
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		e, err := detectSetup(n, rc.seed, movieConfig())
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(time.Since(t0)))
		env = e
	}

	key := fmt.Sprintf("detect-%s-%s", rc.build, shortHash(env.corpus.xml))
	want, err := cachedDigest(rc.cache, key, func() (string, error) {
		cfg := movieConfig()
		cfg.Workers = 1
		ref, err := detectSetup(n, rc.seed, cfg)
		if err != nil {
			return "", err
		}
		res, _, err := ref.detectOnce(nil, nil)
		if err != nil {
			return "", err
		}
		return digest(res), nil
	})
	if err != nil {
		return nil, fmt.Errorf("detect reference: %w", err)
	}

	check := func(res *core.Result, err error, what string) {
		o.attempted++
		if err != nil {
			o.failed++
			o.fail("%s: %v", what, err)
			return
		}
		if got := digest(res); got != want {
			o.fail("%s: output digest %s, Workers=1 reference %s", what, got[:12], want[:12])
		}
	}

	var (
		times    []float64 // untraced repetitions, seconds
		traced   []float64
		last     *core.Result
		rtTotal  rtDelta
		compared float64
		tl       *detectTrace
	)
	if rc.trace {
		tl = newDetectTrace()
	}
	deadline := rc.deadline(1)
	minReps := 3
	if rc.small || rc.trace {
		minReps = 1
	}
	for len(times) < minReps || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC()
		before := readRuntime()
		res, dt, err := env.detectOnce(nil, nil)
		d := before.to(readRuntime())
		check(res, err, "detect")
		if err != nil {
			break
		}
		times = append(times, secs(dt))
		rtTotal.allocObjects += d.allocObjects
		rtTotal.allocBytes += d.allocBytes
		rtTotal.gcCycles += d.gcCycles
		rtTotal.gcCPUFrac += d.gcCPUFrac
		compared += float64(res.Stats.Compared)
		last = res
		if tl != nil {
			runtime.GC()
			res, dt, err := tl.run(n, rc.seed)
			check(res, err, "traced detect")
			if err != nil {
				break
			}
			traced = append(traced, secs(dt))
		}
	}
	if len(times) == 0 {
		return o, nil
	}

	stats := last.Stats
	detectS := median(times)
	o.e2e["setup_s"] = median(setups)
	o.e2e["op_p50_ms"] = detectS * 1e3
	o.e2e["ops_per_s"] = windowRate(times)
	o.e2e["retained_heap_mb"] = retainedMB(func() { last = nil })

	o.detail["detect_s"] = summarize(times)
	o.detail["setup_s"] = summarize(setups)
	o.env["movies"] = n
	o.env["candidates"] = stats.Candidates
	o.env["compared_pairs"] = stats.Compared
	o.env["pairs_detected"] = stats.PairsDetected
	o.env["pruned"] = stats.Pruned
	o.env["store"] = "mem"
	o.env["workers"] = runtime.GOMAXPROCS(0)
	o.env["repetitions"] = len(times)

	if tl != nil {
		reps := float64(len(times))
		pairs := compared / reps
		o.layers["runtime.allocs_per_pair"] = ratio(rtTotal.allocObjects/reps, pairs)
		o.layers["runtime.alloc_bytes_per_pair"] = ratio(rtTotal.allocBytes/reps, pairs)
		o.layers["runtime.gc_cycles"] = rtTotal.gcCycles / reps
		o.layers["runtime.gc_cpu_frac"] = rtTotal.gcCPUFrac / reps
		o.layers["trace.overhead_frac"] = median(traced)/detectS - 1
		o.detail["traced_detect_s"] = summarize(traced)
		tl.report(o, float64(len(traced)))
		o.spans = tl.tr.all()
	}
	return o, nil
}

// detectTrace runs traced repetitions: a stage observer, timing
// wrappers around the comparator and the object filter, and a decorator
// around the MemStore. The tracer is reset per repetition and its
// totals accumulated, so spans of one repetition at a time stay in
// memory.
type detectTrace struct {
	tr     *tracer
	totals map[string]*layerTotals
	stats  core.Stats
	unidx  struct{ calls, ns, lookups int64 }
}

func newDetectTrace() *detectTrace {
	return &detectTrace{totals: map[string]*layerTotals{}}
}

func (t *detectTrace) run(n int, seed int64) (*core.Result, time.Duration, error) {
	t.tr = newTracer()
	at := &current{}
	obs := newStageObserver(t.tr, at)
	unidx := &unindexedCounter{}
	cfg := movieConfig()
	cfg.Observer = obs
	cfg.Comparator = tracedComparator{Comparator: defaultComparator(), tr: t.tr, stage: obs.stage}
	cfg.Filter = tracedFilter{ObjectFilter: defaultFilter(), tr: t.tr, stage: obs.stage}
	cfg.NewStore = func() od.Store {
		return &tracedStore{MutableStore: od.NewMemStore(), tr: t.tr, at: obs.stage, unidx: unidx}
	}
	env, err := detectSetup(n, seed, cfg)
	if err != nil {
		return nil, 0, err
	}
	res, dt, err := env.detectOnce(t.tr, at)
	if err != nil {
		return nil, 0, err
	}
	for name, lt := range aggregate(t.tr.all()) {
		acc := t.totals[name]
		if acc == nil {
			acc = &layerTotals{}
			t.totals[name] = acc
		}
		acc.calls += lt.calls
		acc.total += lt.total
		acc.own += lt.own
	}
	t.stats.Pruned += res.Stats.Pruned
	t.stats.Compared += res.Stats.Compared
	t.unidx.calls += unidx.calls.Load()
	t.unidx.ns += unidx.ns.Load()
	t.unidx.lookups += unidx.lookups.Load()
	return res, dt, nil
}

// report turns the accumulated totals into per-Detect layer metrics.
func (t *detectTrace) report(o *outcome, reps float64) {
	stage := func(name string) float64 {
		if lt := t.totals[stageSpan(name)]; lt != nil {
			return float64(lt.total) / 1e9 / reps
		}
		return 0
	}
	o.layers["xmltree.parse_s"] = float64(t.totals[spanParse].total) / 1e9 / reps
	for _, st := range []string{core.StageCandidates, core.StageDescribe, core.StageReduce, core.StageCompare, core.StageCluster} {
		o.layers["core."+st+"_s"] = stage(st)
	}
	o.layers["core.pruned"] = float64(t.stats.Pruned) / reps
	o.layers["core.compared_pairs"] = float64(t.stats.Compared) / reps
	o.layers["core.compare_ns_per_pair"] = ratio(stage(core.StageCompare)*reps*1e9, float64(t.stats.Compared))
	addTotals(o.layers, t.totals, reps, map[string]string{
		spanCompare:   "sim.compare",
		spanFilter:    "sim.filter",
		spanNeighbors: "od.neighbors",
		spanSimilar:   "od.similar_values",
		spanSoftIDF:   "od.softidf",
		spanExact:     "od.exact",
	}, map[string]bool{spanCompare: true, spanFilter: true})
	o.layers["od.unindexed_query_frac"] = ratio(float64(t.unidx.calls), float64(t.unidx.lookups))
	o.layers["od.unindexed_query_s"] = float64(t.unidx.ns) / 1e9 / reps
}
