package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestTailFor(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{n: 1000, pct: 99, beyond: 10, ok: true}, // p99.9 leaves only 1 beyond
		{n: 10000, pct: 99.9, beyond: 10, ok: true},
		{n: 100, pct: 90, beyond: 10, ok: true},
		{n: 200, pct: 95, beyond: 10, ok: true},
		{n: 40, pct: 75, beyond: 10, ok: true},
		{n: 39, ok: false},
		{n: 5, ok: false},
		{n: 0, ok: false},
	} {
		pct, beyond, ok := tailFor(c.n)
		if ok != c.ok || pct != c.pct || beyond != c.beyond {
			t.Errorf("tailFor(%d) = %v, %d, %v; want %v, %d, %v", c.n, pct, beyond, ok, c.pct, c.beyond, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50.5 || s.TailPct != 90 || s.Tail != 90 || s.Beyond != 10 {
		t.Errorf("summarize = %+v", s)
	}
	if xs[0] != 100 {
		t.Error("summarize reordered its input")
	}
	if s := summarize([]float64{3, 1, 2}); s.P50 != 2 || s.TailPct != 0 {
		t.Errorf("three samples: %+v, want median 2 and no tail", s)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{id: 1, start: 0, end: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 50, end: 60}}, 80},
		{"overlapping", []span{{start: 10, end: 30}, {start: 20, end: 40}}, 70},
		{"nested", []span{{start: 10, end: 50}, {start: 20, end: 30}}, 60},
		{"clipped", []span{{start: -10, end: 10}, {start: 90, end: 120}}, 80},
		{"outside", []span{{start: 100, end: 150}}, 100},
		{"covering", []span{{start: 0, end: 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAggregate(t *testing.T) {
	spans := []span{
		{id: 1, name: "a", start: 0, end: 100},
		{id: 2, parent: 1, name: "b", start: 10, end: 40},
		{id: 3, parent: 1, name: "b", start: 30, end: 60},
		{id: 4, parent: 2, name: "c", start: 15, end: 20},
	}
	agg := aggregate(spans)
	if a := agg["a"]; a.calls != 1 || a.total != 100 || a.own != 50 {
		t.Errorf("a: %+v", *a)
	}
	if b := agg["b"]; b.calls != 2 || b.total != 60 || b.own != 55 {
		t.Errorf("b: %+v", *b)
	}
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json declares, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"detect", "serve", "query"} {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			if err := run(&out, wl, 7, 0.5, trace, t.TempDir(), "test", true); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", wl, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.Name, got.Value)
				}
			}
		}
	}
}

func TestWindowRate(t *testing.T) {
	// Ten 0.1 s operations, one window of them slowed to 1 s each:
	// the median window still reads 10 ops/s.
	lat := []float64{0.1, 0.1, 0.1, 0.1, 1, 1, 0.1, 0.1, 0.1, 0.1}
	if got := windowRate(lat); got != 10 {
		t.Errorf("windowRate = %v, want 10", got)
	}
	if got := windowRate([]float64{0.5, 0.25}); got != 3 {
		t.Errorf("two operations: windowRate = %v, want the median of 2 and 4", got)
	}
}
