// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the public APIs of core, api, od and odrpc, checks
// every output against a reference, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	bash perfbench/run.sh --workload detect|serve|query --seed N \
//	    --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation installed. With --trace 1 the run is repeated with
// timing wrappers around each layer's public seams and the metrics are
// the per-layer ones. README.md in this directory explains the
// workloads, the metrics and the layer each one is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Metric units.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitPerS  = "1/s"
	unitMB    = "MB"
	unitCount = "count"
	unitFrac  = "frac"
	unitBytes = "bytes"
	unitNS    = "ns"
)

// endToEnd lists the metrics of an untraced run, identical on every
// workload so each can be compared run against run. What "op" is
// differs per workload: one Detect call, one durable update ack, one
// index lookup.
var endToEnd = []metricDef{
	{"setup_s", unitS},
	{"op_p50_ms", unitMS},
	{"ops_per_s", unitPerS},
	{"retained_heap_mb", unitMB},
}

// perLayer lists the metrics of a traced run. A layer a workload never
// reaches reads 0. Times and counts are per unit operation of the
// workload unless the name says otherwise.
var perLayer = []metricDef{
	{"xmltree.parse_s", unitS},
	{"core.candidates_s", unitS},
	{"core.describe_s", unitS},
	{"core.reduce_s", unitS},
	{"core.pruned", unitCount},
	{"core.compare_s", unitS},
	{"core.compared_pairs", unitCount},
	{"core.compare_ns_per_pair", unitNS},
	{"core.patched_pairs", unitCount},
	{"core.update_s", unitS},
	{"core.snapshot_s", unitS},
	{"core.traces_s", unitS},
	{"core.adopt_s", unitS},
	{"core.cluster_s", unitS},
	{"sim.compare_calls", unitCount},
	{"sim.compare_self_s", unitS},
	{"sim.filter_calls", unitCount},
	{"sim.filter_self_s", unitS},
	{"od.neighbors_calls", unitCount},
	{"od.neighbors_s", unitS},
	{"od.similar_values_calls", unitCount},
	{"od.similar_values_s", unitS},
	{"od.softidf_calls", unitCount},
	{"od.softidf_s", unitS},
	{"od.exact_calls", unitCount},
	{"od.exact_s", unitS},
	{"od.unindexed_query_frac", unitFrac},
	{"od.unindexed_query_s", unitS},
	{"od.sim_cache_hit_rate", unitFrac},
	{"od.od_cache_hit_rate", unitFrac},
	{"od.routing_skip_rate", unitFrac},
	{"od.member_queries_per_lookup", unitCount},
	{"od.bytes_written_per_update", unitBytes},
	{"odrpc.round_trips_per_lookup", unitCount},
	{"odrpc.bytes_per_lookup", unitBytes},
	{"odrpc.call_s", unitS},
	{"api.queue_wait_ms", unitMS},
	{"api.apply_ms", unitMS},
	{"api.similar_blocked_frac", unitFrac},
	{"runtime.allocs_per_pair", unitCount},
	{"runtime.alloc_bytes_per_pair", unitBytes},
	{"runtime.gc_cpu_frac", unitFrac},
	{"runtime.gc_cycles", unitCount},
	{"trace.overhead_frac", unitFrac},
}

type metricDef struct{ name, unit string }

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	small   bool   // tiny corpora, for the package's own tests
	work    string // scratch directory, removed when the run ends
	cache   string // reference digests, kept across runs
	build   string // hash of this binary: cached references are valid only for it
}

func (c runConfig) deadline(frac float64) time.Time {
	return time.Now().Add(time.Duration(c.seconds * frac * float64(time.Second)))
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output check; any entry fails the run.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	// detail carries the workload's own named figures (percentiles
	// with sample counts, traced end-to-end numbers) for the log.
	detail map[string]any
	env    map[string]any
	// spans holds a traced run's spans, written out once it has ended.
	spans []span
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, detail: map[string]any{}, env: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"detect": runDetect,
	"serve":  runServe,
	"query":  runQuery,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// buildResult selects the metrics of the run's mode. A name the
// workload did not report is a per-layer metric of a layer it never
// reaches and reads 0; an end-to-end metric must always be reported.
func buildResult(o *outcome, trace bool) (resultLine, error) {
	defs, vals := endToEnd, o.e2e
	if trace {
		defs, vals = perLayer, o.layers
	}
	known := map[string]bool{}
	res := resultLine{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		known[d.name] = true
		v, ok := vals[d.name]
		if !ok && !trace {
			return res, fmt.Errorf("workload did not report %s", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if !known[name] {
			return res, fmt.Errorf("workload reported undeclared metric %s", name)
		}
	}
	return res, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "detect | serve | query")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository checkout; scratch files go under its .bench_build")
		commit   = flag.String("commit", "unknown", "commit being measured, recorded in the output")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(os.Stdout, *workload, *seed, *seconds, *trace == 1, *root, *commit, false); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload and prints its result. small selects tiny
// corpora, for the package's own tests. A traced run's spans go to
// .bench_build/spans-<workload>.tsv under root.
func run(w io.Writer, workload string, seed int64, seconds float64, trace bool, root, commit string, small bool) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want detect, serve or query)", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cache := filepath.Join(root, ".bench_build", "refcache")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Dir(cache), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	build, err := binaryHash()
	if err != nil {
		return err
	}
	cfg := runConfig{seed: seed, seconds: seconds, trace: trace, small: small, work: work, cache: cache, build: build}
	o, err := fn(context.Background(), cfg)
	if err != nil {
		return err
	}
	if trace {
		if err := writeSpans(filepath.Join(root, ".bench_build", "spans-"+workload+".tsv"), o.spans); err != nil {
			return err
		}
	}
	res, err := buildResult(o, trace)
	if err != nil {
		return err
	}
	o.env["workload"] = workload
	o.env["seed"] = seed
	o.env["seconds"] = seconds
	o.env["trace"] = trace
	o.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.env["nproc"] = nproc
	o.env["go_version"] = runtime.Version()
	o.env["commit"] = commit
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", p)
	}
	for _, v := range []any{map[string]any{"env": o.env}, map[string]any{"detail": o.detail}, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("encode output: %w", err)
		}
		fmt.Fprintln(w, string(b))
	}
	if !res.Correct {
		return fmt.Errorf("%d output checks failed", len(o.problems))
	}
	return nil
}

// binaryHash identifies the running binary, and with it the program
// code compiled into it.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	return shortHash(b), nil
}

// retainedMB is the live heap the workload's program state holds: the
// live heap with it reachable minus the live heap after release has
// dropped it. The benchmark's own inputs and references are live in
// both readings and cancel out.
func retainedMB(release func()) float64 {
	with := liveHeapMB()
	release()
	return with - liveHeapMB()
}

// liveHeapMB forces a collection and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// addTotals folds per-span-name totals into layer metrics, per unit
// operation: name_calls and name_s (or name_self_s for self time).
func addTotals(layers map[string]float64, agg map[string]*layerTotals, ops float64, names map[string]string, self map[string]bool) {
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, spanName := range keys {
		metric := names[spanName]
		lt := agg[spanName]
		if lt == nil {
			lt = &layerTotals{}
		}
		layers[metric+"_calls"] = ratio(float64(lt.calls), ops)
		if self[spanName] {
			layers[metric+"_self_s"] = ratio(float64(lt.own)/1e9, ops)
		} else {
			layers[metric+"_s"] = ratio(float64(lt.total)/1e9, ops)
		}
	}
}
