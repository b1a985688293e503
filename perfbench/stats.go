package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates for a timing's reported tail, from
// the highest down. tailFor picks the highest one that still has at
// least minBeyond samples above it.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// summary is a latency distribution reduced to what the benchmark
// reports: median, the highest percentile with at least minBeyond
// samples beyond it, and the sample count behind both.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct,omitempty"` // 0 when too few samples for any tail
	Tail    float64 `json:"tail,omitempty"`
	Beyond  int     `json:"beyond,omitempty"` // samples above the tail percentile
	Mean    float64 `json:"mean"`
}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// tailFor returns the highest percentile of tailPercentiles that has at
// least minBeyond of n samples strictly above its rank, with that
// count; ok is false when n is too small for any of them.
func tailFor(n int) (pct float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		if b := n - 1 - rankIndex(p, n); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// summarize reduces samples (in any unit) to a summary. It sorts a
// copy; the input is left as it was.
func summarize(samples []float64) summary {
	s := summary{N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	s.P50 = median(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	if p, b, ok := tailFor(len(xs)); ok {
		s.TailPct, s.Beyond, s.Tail = p, b, xs[rankIndex(p, len(xs))]
	}
	return s
}

// median of samples; the mean of the middle two for an even count.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ms(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rateWindows is how many consecutive windows ops_per_s splits a run's
// operations into.
const rateWindows = 5

// windowRate is the median, over up to rateWindows consecutive windows
// of a closed loop's operations, of operations completed per second of
// waiting on them. lat holds each operation's latency in seconds, in
// issue order. A window slowed by a burst of outside load moves the
// median less than it would move a single whole-run rate.
func windowRate(lat []float64) float64 {
	w := min(rateWindows, len(lat))
	var rates []float64
	for i := 0; i < w; i++ {
		part := lat[i*len(lat)/w : (i+1)*len(lat)/w]
		rates = append(rates, ratio(float64(len(part)), sum(part)))
	}
	return median(rates)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
