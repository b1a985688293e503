package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/api/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dirty"
	"repro/internal/od"
)

// serveSize is the number of IMDB movies in the served corpus.
func serveSize(small bool) int {
	if small {
		return 60
	}
	return 500
}

// serveBatch is how many one-movie documents each update submission
// carries. Update cost varies several-fold from one movie to the next
// (it depends on how many objects share the movie's values); a batch
// evens that out so a run's median ack is steady from seed to seed.
const serveBatch = 4

// Reader operation kinds.
const (
	readDuplicates = iota
	readClusters
	readSimilar
)

type readOp struct {
	kind  int
	id    int32
	typ   string
	value string
}

// serveScript is the seeded traffic: the writer's one-movie FilmDienst
// documents, in submission order, and the reader's request mix.
type serveScript struct {
	docs  []api.UpdateDoc
	reads []readOp
}

// newServeScript takes the writer's documents from the corpus's own
// movies in a seeded order, each movie once (a second source delivering
// the movies the first already holds), so every run's submissions are
// an even sample of the corpus.
// The reader reviews one corpus movie at a time, the way a person
// checks a record's verdicts: the movie's duplicates, then a
// similar-value query for its title and for each of its people, then
// the cluster list. So the share of each request kind follows the
// corpus's own values per movie. Query values carry typos at the
// paper's Dataset 1 per-value rate (dirty.Dataset1Params). reviews is
// how many movies the reader's script covers before it repeats.
func newServeScript(movies []datagen.Movie, seed int64, reviews int) (*serveScript, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e4e))
	s := &serveScript{}
	for i, m := range rng.Perm(len(movies)) {
		var buf bytes.Buffer
		if err := datagen.FilmDienstToXML(movies[m : m+1]).WriteXML(&buf); err != nil {
			return nil, err
		}
		s.docs = append(s.docs, api.UpdateDoc{Name: fmt.Sprintf("fd-%d", i), XML: buf.String()})
	}
	typoRate := dirty.Dataset1Params().TypoPct
	similar := func(typ, value string) readOp {
		if rng.Float64() < typoRate {
			value = typo(rng, value)
		}
		return readOp{kind: readSimilar, typ: typ, value: value}
	}
	for i := 0; i < reviews; i++ {
		// The corpus is source 0, so movie m is candidate m.
		m := rng.Intn(len(movies))
		mv := movies[m]
		s.reads = append(s.reads, readOp{kind: readDuplicates, id: int32(m)}, similar("TITLE", mv.Title))
		for _, p := range mv.People {
			s.reads = append(s.reads, similar("PERSON", p.First+" "+p.Last))
		}
		s.reads = append(s.reads, readOp{kind: readClusters})
	}
	return s, nil
}

// request is the writer's k-th submission: serveBatch new documents
// (the script repeats once used up; serveSize is a multiple of
// serveBatch), and the removal of the documents submission k-1 added,
// so the corpus stays the same size and every submission costs about
// the same. The initial corpus is source 0 and each document becomes
// the next source.
func (s *serveScript) request(k int) *api.UpdateRequest {
	at := k * serveBatch % len(s.docs)
	req := &api.UpdateRequest{Add: s.docs[at : at+serveBatch]}
	if k > 0 {
		for i := 0; i < serveBatch; i++ {
			req.Remove = append(req.Remove, fmt.Sprintf("%d:/filmdienst/movie", 1+(k-1)*serveBatch+i))
		}
	}
	return req
}

// typo replaces one letter of v.
func typo(rng *rand.Rand, v string) string {
	rs := []rune(v)
	if len(rs) == 0 {
		return v
	}
	rs[rng.Intn(len(rs))] = rune('a' + rng.Intn(26))
	return string(rs)
}

// daemon is one in-process dogmatixd serving a DiskStore snapshot on a
// loopback port.
type daemon struct {
	svc    *api.Service
	store  *od.DiskStore
	srv    *http.Server
	served chan struct{}
	base   string
	// boot phases, for core.adopt_s
	adopt, rehydrate time.Duration
	cov              *indexCoverage
}

// serveDetectorConfig is the daemon's duplicate definition: the movie
// config with replay traces recorded and every update persisted into
// the snapshot directory before it is acknowledged.
func serveDetectorConfig(dir string, obs core.Observer) core.Config {
	cfg := movieConfig()
	cfg.Incremental = true
	cfg.Snapshot = &core.SnapshotOptions{Dir: dir, Save: true}
	cfg.Observer = obs
	return cfg
}

// bootDaemon boots the way dogmatixd serves an existing snapshot:
// OpenDiskStore, Adopt, a zero-batch Update that rehydrates pairs and
// clusters, api.New; then it listens and waits for /healthz to say ok.
func bootDaemon(ctx context.Context, dir string, obs core.Observer) (*daemon, error) {
	d := &daemon{}
	t0 := time.Now()
	ds, err := od.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	res, err := core.Adopt("MOVIE", ds)
	if err != nil {
		ds.Close()
		return nil, err
	}
	d.adopt = time.Since(t0)
	det, err := core.NewDetector(movieMapping(), serveDetectorConfig(dir, obs))
	if err != nil {
		ds.Close()
		return nil, err
	}
	t1 := time.Now()
	res, err = det.Update(res, core.UpdateBatch{})
	if err != nil {
		ds.Close()
		return nil, err
	}
	d.rehydrate = time.Since(t1)
	d.cov = newIndexCoverage(ds)
	svc, err := api.New(api.Config{Detector: det, Result: res, PipelinePersists: true})
	if err != nil {
		ds.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(ctx)
		ds.Close()
		return nil, err
	}
	d.svc, d.store, d.base = svc, ds, "http://"+ln.Addr().String()
	d.srv = &http.Server{Handler: svc.Handler()}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	cl := client.New(d.base)
	for {
		h, err := cl.Health(ctx)
		if err == nil && h.Status == "ok" {
			break
		}
		if time.Since(t0) > time.Minute {
			d.close()
			return nil, fmt.Errorf("daemon not healthy after a minute: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	cl.HTTP.CloseIdleConnections()
	return d, nil
}

// close drains the service, stops the listener and waits for the serve
// goroutine, then closes the store.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.svc.Shutdown(ctx)
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	<-d.served
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// sessionResult is what one serve session measured.
type sessionResult struct {
	ackMS, readMS, similarMS []float64
	acks                     int
	span                     time.Duration // first submit to last ack
	attempted, failed        int64
	final                    []string // pair set of the last published view
	reopened                 []string // pair set after reopening the snapshot
	rt                       rtDelta
	compared, patched        int64
	pruned                   int64
	heapMB                   float64
	capacity                 map[string]int // the DiskStore's cache capacities, from /metrics
	// traced sessions only
	requests       []span // reader requests (similar only), in tracer time
	ackSpans       []span // writer acks, in tracer time
	cacheHits      map[string][2]uint64
	bytesPerUpdate float64
	adopt          time.Duration
	unidx, simReqs int64
	unidxMS        float64
}

// serveSession boots a daemon over a fresh copy of the pristine
// snapshot and drives it with one closed-loop writer and one
// closed-loop reader. The writer submits until the deadline (or, with
// submits > 0, exactly that many submissions); the reader runs until
// the writer stops. With tr set, an observer records the
// pipeline stages of every Update and both clients record their
// requests as spans.
func serveSession(ctx context.Context, pristine, dir string, script *serveScript, deadline time.Time, submits int, tr *tracer, o *outcome) (*sessionResult, error) {
	if err := copyDir(pristine, dir); err != nil {
		return nil, err
	}
	var obs *stageObserver
	var observer core.Observer
	if tr != nil {
		obs = newStageObserver(tr, &current{})
		obs.updateRoots = true
		observer = obs
	}
	d, err := bootDaemon(ctx, dir, observer)
	if err != nil {
		return nil, err
	}
	r := &sessionResult{adopt: d.adopt + d.rehydrate, cacheHits: map[string][2]uint64{}}
	sizeBefore, err := dirSize(dir)
	if err != nil {
		d.close()
		return nil, err
	}

	writer, reader := client.New(d.base), client.New(d.base)
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		mu      sync.Mutex // guards o and r's shared counters
		first   time.Time
		lastAck time.Time
	)
	record := func(ok bool, what string, err error) {
		mu.Lock()
		defer mu.Unlock()
		r.attempted++
		if !ok {
			r.failed++
			o.fail("%s: %v", what, err)
		}
	}
	runtime.GC()
	rt0 := readRuntime()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(stop)
		var epoch int64 = -1
		for k := 0; ; k++ {
			if submits > 0 && k >= submits || submits == 0 && !time.Now().Before(deadline) {
				return
			}
			t0 := time.Now()
			if k == 0 {
				first = t0
			}
			var start int64
			if tr != nil {
				start = tr.now()
			}
			resp, err := writer.Submit(ctx, script.request(k))
			lat := time.Since(t0)
			if err != nil {
				record(false, fmt.Sprintf("update %d", k), err)
				return
			}
			if tr != nil {
				r.ackSpans = append(r.ackSpans, span{name: "api.ack", start: start, end: tr.now()})
				if m, err := writer.Metrics(ctx); err == nil {
					for name, c := range m.Cache {
						h := r.cacheHits[name]
						r.cacheHits[name] = [2]uint64{h[0] + c.Hits, h[1] + c.Misses}
					}
				}
			}
			switch {
			case !resp.Durable:
				record(false, fmt.Sprintf("update %d", k), errors.New("ack not durable"))
			case resp.Epoch <= epoch:
				record(false, fmt.Sprintf("update %d", k), fmt.Errorf("epoch %d after %d", resp.Epoch, epoch))
			default:
				record(true, "", nil)
			}
			epoch = resp.Epoch
			lastAck = time.Now()
			r.ackMS = append(r.ackMS, ms(lat))
			r.acks++
			r.compared += resp.Compared
			r.patched += resp.Patched
			r.pruned += int64(d.svc.Result().Stats.Pruned)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := script.reads[i%len(script.reads)]
			var start int64
			if tr != nil {
				start = tr.now()
			}
			t0 := time.Now()
			var err error
			switch op.kind {
			case readDuplicates:
				_, err = reader.Duplicates(ctx, op.id)
			case readClusters:
				_, err = reader.Clusters(ctx)
			default:
				_, err = reader.Similar(ctx, op.typ, op.value)
			}
			lat := ms(time.Since(t0))
			record(err == nil, "read", err)
			if err != nil {
				continue
			}
			if op.kind == readSimilar {
				r.similarMS = append(r.similarMS, lat)
				if tr != nil {
					r.requests = append(r.requests, span{name: spanRequest, start: start, end: tr.now()})
				}
				r.simReqs++
				if d.cov.unindexed(od.Tuple{Type: op.typ, Value: op.value}) {
					r.unidx++
					r.unidxMS += lat
				}
			} else {
				r.readMS = append(r.readMS, lat)
			}
		}
	}()
	wg.Wait()
	m, err := writer.Metrics(ctx)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("metrics: %w", err)
	}
	r.capacity = map[string]int{}
	for name, c := range m.Cache {
		r.capacity[name] = c.Capacity
	}
	writer.HTTP.CloseIdleConnections()
	reader.HTTP.CloseIdleConnections()
	r.rt = rt0.to(readRuntime())
	r.span = lastAck.Sub(first)
	r.final = pairKeys(d.svc.Result())
	var closeErr error
	r.heapMB = retainedMB(func() { closeErr = d.close(); d = nil })
	if closeErr != nil {
		return nil, closeErr
	}
	if sizeAfter, err := dirSize(dir); err == nil && r.acks > 0 {
		r.bytesPerUpdate = float64(sizeAfter-sizeBefore) / float64(r.acks)
	}
	if obs != nil {
		r.ackSpans = matchRoots(r.ackSpans, obs.closedRoots())
	}

	// Reopen the snapshot the way a restarted daemon would and read its
	// pair set.
	ds, err := od.OpenDiskStore(dir)
	if err != nil {
		return nil, fmt.Errorf("reopen snapshot: %w", err)
	}
	defer ds.Close()
	res, err := core.Adopt("MOVIE", ds)
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetector(movieMapping(), serveDetectorConfig(dir, nil))
	if err != nil {
		return nil, err
	}
	if res, err = det.Update(res, core.UpdateBatch{}); err != nil {
		return nil, fmt.Errorf("rehydrate reopened snapshot: %w", err)
	}
	r.reopened = pairKeys(res)
	return r, nil
}

// matchRoots pairs each ack with the Update run that carried it. The
// single writer never lets two submissions coalesce, so the i-th Update
// run after boot (the boot's own rehydrating run comes first) carries
// the i-th ack. The returned spans hold the ack's interval as start/end
// and the Update run's duration in id (nanoseconds).
func matchRoots(acks, roots []span) []span {
	if len(roots) > 0 {
		roots = roots[1:]
	}
	out := make([]span, 0, len(acks))
	for i, a := range acks {
		if i < len(roots) {
			a.id = roots[i].dur()
		}
		out = append(out, a)
	}
	return out
}

// runServe is the resident-service workload. See README.md.
func runServe(ctx context.Context, rc runConfig) (*outcome, error) {
	n := serveSize(rc.small)
	o := newOutcome()
	corpus, err := buildMovieCorpus(n, rc.seed)
	if err != nil {
		return nil, err
	}
	script, err := newServeScript(corpus.movies, rc.seed, 1000)
	if err != nil {
		return nil, err
	}

	// The pristine snapshot: the corpus detected once on a DiskStore
	// with replay traces, saved with its trace segment. Every session
	// serves its own copy.
	pristine := filepath.Join(rc.work, "pristine")
	{
		cfg := serveDetectorConfig(pristine, nil)
		cfg.NewStore = func() od.Store { return od.NewDiskStore(pristine) }
		det, err := core.NewDetector(movieMapping(), cfg)
		if err != nil {
			return nil, err
		}
		doc, err := parseXML(corpus.xml)
		if err != nil {
			return nil, err
		}
		res, err := det.DetectInputs("MOVIE", core.DocSource{Name: "imdb", Doc: doc})
		if err != nil {
			return nil, fmt.Errorf("build snapshot: %w", err)
		}
		if err := res.Store.(*od.DiskStore).Close(); err != nil {
			return nil, err
		}
		o.env["movies"] = n
		o.env["candidates"] = len(res.Candidates)
		o.env["pairs_detected"] = len(res.Pairs)
	}

	// Set-up: boot from a fresh copy several times; setup_s is the
	// median boot.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(rc.work, fmt.Sprintf("boot-%d", i))
		if err := copyDir(pristine, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err := bootDaemon(ctx, dir, nil)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		setups = append(setups, secs(time.Since(t0)))
		if err := d.close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}

	frac := 1.0
	if rc.trace {
		frac = 0.5
	}
	plain, err := serveSession(ctx, pristine, filepath.Join(rc.work, "live"), script, rc.deadline(frac), 0, nil, o)
	if err != nil {
		return nil, err
	}
	checkSession(o, plain, "serve")
	o.attempted, o.failed = plain.attempted, plain.failed

	ack := summarize(plain.ackMS)
	o.e2e["setup_s"] = median(setups)
	o.e2e["op_p50_ms"] = ack.P50
	ackS := make([]float64, len(plain.ackMS))
	for i, v := range plain.ackMS {
		ackS[i] = v / 1e3
	}
	o.e2e["ops_per_s"] = windowRate(ackS)
	o.e2e["retained_heap_mb"] = plain.heapMB
	o.detail["setup_s"] = summarize(setups)
	o.detail["update_ack_ms"] = ack
	o.detail["update_docs_per_s"] = ratio(float64(plain.acks*serveBatch), plain.span.Seconds())
	o.detail["read_ms"] = summarize(plain.readMS)
	o.detail["similar_ms"] = summarize(plain.similarMS)
	o.detail["compared_pairs_per_update"] = ratio(float64(plain.compared), float64(plain.acks))
	o.env["store"] = "disk"
	o.env["updates_acked"] = plain.acks
	o.env["final_pairs"] = len(plain.final)
	o.env["od_cache_capacity"] = plain.capacity["od"]
	o.env["sim_cache_capacity"] = plain.capacity["sim"]
	o.env["live_ods"] = n + serveBatch
	o.env["docs_per_submission"] = serveBatch
	o.env["writers"], o.env["readers"] = 1, 1

	if !rc.trace {
		return o, nil
	}
	tr := newTracer()
	traced, err := serveSession(ctx, pristine, filepath.Join(rc.work, "traced"), script, time.Time{}, plain.acks, tr, o)
	if err != nil {
		return nil, err
	}
	checkSession(o, traced, "traced serve")
	o.attempted += traced.attempted
	o.failed += traced.failed
	if !equalKeys(traced.final, plain.final) {
		o.fail("traced serve: final pair set (%d pairs) differs from the untraced run's (%d pairs) after the same %d submissions",
			len(traced.final), len(plain.final), plain.acks)
	}
	o.spans = tr.all()
	serveLayers(o, o.spans, traced, plain)
	o.detail["traced_update_ack_ms"] = summarize(traced.ackMS)
	return o, nil
}

// checkSession applies the serve output checks that need the session's
// end state: the reopened snapshot must hold the live service's final
// pair set.
func checkSession(o *outcome, r *sessionResult, what string) {
	if r.acks == 0 {
		o.fail("%s: no update was acknowledged", what)
	}
	if !equalKeys(r.final, r.reopened) {
		o.fail("%s: reopened snapshot has %d pairs, the live view %d (or they differ)", what, len(r.reopened), len(r.final))
	}
}

func equalKeys(a, b []string) bool {
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

// serveLayers derives the serve workload's per-layer metrics, per
// applied update, from the traced session's spans and counters, and
// the runtime ones from the untraced session.
func serveLayers(o *outcome, spans []span, traced, plain *sessionResult) {
	updates := float64(traced.acks)
	var roots []span
	stageTotal := map[string]int64{}
	rootIDs := map[int64]bool{}
	for _, s := range spans {
		if s.name == spanUpdate {
			roots = append(roots, s)
			rootIDs[s.id] = true
		}
	}
	if len(roots) > 0 {
		boot := roots[0]
		roots = roots[1:]
		delete(rootIDs, boot.id)
	}
	for _, s := range spans {
		if rootIDs[s.parent] {
			stageTotal[s.name] += s.dur()
		}
	}
	for _, st := range []string{core.StageUpdate, core.StageReduce, core.StageSnapshot, core.StageCompare, core.StageCluster, core.StageTraces} {
		o.layers["core."+st+"_s"] = float64(stageTotal[stageSpan(st)]) / 1e9 / max(updates, 1)
	}
	o.layers["core.adopt_s"] = traced.adopt.Seconds()
	o.layers["core.compared_pairs"] = ratio(float64(traced.compared), updates)
	o.layers["core.patched_pairs"] = ratio(float64(traced.patched), updates)
	o.layers["core.pruned"] = ratio(float64(traced.pruned), updates)
	o.layers["core.compare_ns_per_pair"] = ratio(float64(stageTotal[stageSpan(core.StageCompare)]), float64(traced.compared))

	var wait, apply float64
	for _, a := range traced.ackSpans {
		apply += float64(a.id) / 1e6
		wait += float64(a.dur()-a.id) / 1e6
	}
	o.layers["api.apply_ms"] = ratio(apply, float64(len(traced.ackSpans)))
	o.layers["api.queue_wait_ms"] = ratio(wait, float64(len(traced.ackSpans)))
	blocked := 0
	for _, q := range traced.requests {
		for _, u := range roots {
			if q.start < u.end && u.start < q.end {
				blocked++
				break
			}
		}
	}
	o.layers["api.similar_blocked_frac"] = ratio(float64(blocked), float64(len(traced.requests)))
	o.layers["od.unindexed_query_frac"] = ratio(float64(traced.unidx), float64(traced.simReqs))
	o.layers["od.unindexed_query_s"] = ratio(traced.unidxMS/1e3, updates)
	hitRate := func(name string) float64 {
		h := traced.cacheHits[name]
		return ratio(float64(h[0]), float64(h[0]+h[1]))
	}
	o.layers["od.sim_cache_hit_rate"] = hitRate("sim")
	o.layers["od.od_cache_hit_rate"] = hitRate("od")
	o.layers["od.bytes_written_per_update"] = traced.bytesPerUpdate

	o.layers["runtime.allocs_per_pair"] = ratio(plain.rt.allocObjects, float64(plain.compared))
	o.layers["runtime.alloc_bytes_per_pair"] = ratio(plain.rt.allocBytes, float64(plain.compared))
	o.layers["runtime.gc_cycles"] = ratio(plain.rt.gcCycles, float64(plain.acks))
	o.layers["runtime.gc_cpu_frac"] = plain.rt.gcCPUFrac
	o.layers["trace.overhead_frac"] = median(traced.ackMS)/median(plain.ackMS) - 1
}

// copyDir copies a snapshot directory tree.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
