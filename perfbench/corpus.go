package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/od"
	"repro/internal/sim"
	"repro/internal/strdist"
	"repro/internal/xmltree"
)

// corpusSeed fixes the content of every workload's corpus. The run's
// --seed orders the corpus and drives all traffic, so two seeds give
// different inputs and outputs over the same amount of work: generated
// corpora of this size differ by up to a fifth in detection cost from
// one generator seed to the next, more than the bounds allow between
// runs.
const corpusSeed = 1

// movieCorpus is Dataset 2's IMDB side, rendered to XML bytes: the
// detect input and the serve workload's initial corpus.
type movieCorpus struct {
	movies []datagen.Movie
	xml    []byte
}

func buildMovieCorpus(n int, seed int64) (*movieCorpus, error) {
	movies := datagen.Movies(n, corpusSeed)
	rand.New(rand.NewSource(seed)).Shuffle(len(movies), func(i, j int) { movies[i], movies[j] = movies[j], movies[i] })
	var buf bytes.Buffer
	if err := datagen.IMDBToXML(movies).WriteXML(&buf); err != nil {
		return nil, err
	}
	return &movieCorpus{movies: movies, xml: buf.Bytes()}, nil
}

// movieMapping is Dataset 2's mapping M (candidate type MOVIE).
func movieMapping() *core.Mapping {
	m := experiments.MappingFromPaths(datagen.Dataset2MappingPaths())
	m.MustMarkComposite(datagen.Dataset2CompositePaths()...)
	return m
}

// movieConfig is the duplicate definition every movie workload uses:
// the paper's thresholds, r-distant descendants (r = 2) and the Step 4
// object filter on.
func movieConfig() core.Config {
	return core.Config{
		Heuristic:  heuristics.RDistantDescendants(2),
		ThetaTuple: experiments.ThetaTuple,
		ThetaCand:  experiments.ThetaCand,
		UseFilter:  true,
	}
}

// digest is a stable hash of everything a detection outputs: pairs with
// their exact score bits, possible pairs, pruned IDs and clusters.
func digest(r *core.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, group := range [][]core.Pair{r.Pairs, r.PossiblePairs} {
		put(uint64(len(group)))
		for _, p := range group {
			put(uint64(uint32(p.I))<<32 | uint64(uint32(p.J)))
			put(math.Float64bits(p.Score))
		}
	}
	put(uint64(len(r.Pruned)))
	for _, id := range r.Pruned {
		put(uint64(id))
	}
	put(uint64(len(r.Clusters)))
	for _, c := range r.Clusters {
		put(uint64(len(c)))
		for _, id := range c {
			put(uint64(id))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pairKeys renders a result's duplicate pairs by object identity
// (source, path) rather than ID, with exact score bits, sorted — the
// form two stores with possibly different ID spaces can be compared in.
func pairKeys(r *core.Result) []string {
	ref := func(id int32) string {
		c := r.Candidates[id]
		return fmt.Sprintf("%d:%s", c.Source, c.Path)
	}
	out := make([]string, 0, len(r.Pairs))
	for _, p := range r.Pairs {
		a, b := ref(p.I), ref(p.J)
		if b < a {
			a, b = b, a
		}
		out = append(out, fmt.Sprintf("%s|%s|%x", a, b, math.Float64bits(p.Score)))
	}
	sort.Strings(out)
	return out
}

// shortHash is the first 16 hex digits of b's SHA-256.
func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// cachedDigest returns the digest stored under key in dir, computing
// and storing it with compute on a miss.
func cachedDigest(dir, key string, compute func() (string, error)) (string, error) {
	path := filepath.Join(dir, key)
	if b, err := os.ReadFile(path); err == nil {
		if d := strings.TrimSpace(string(b)); len(d) == 64 {
			return d, nil
		}
	}
	d, err := compute()
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(d+"\n"), 0o644); err != nil {
		return "", err
	}
	return d, os.Rename(tmp, path)
}

// indexCoverage tells, from a store's public type statistics, whether a
// similar-value lookup is served by the deletion-neighbourhood index or
// falls back to a scan: the type must be indexed and its edit budget
// must cover the longer of the query and the type's longest value.
type indexCoverage struct {
	theta float64
	types map[string]od.TypeStats
}

func newIndexCoverage(s od.Store) *indexCoverage {
	c := &indexCoverage{theta: s.Theta(), types: map[string]od.TypeStats{}}
	for _, st := range s.Stats() {
		c.types[st.Type] = st
	}
	return c
}

func (c *indexCoverage) unindexed(t od.Tuple) bool {
	st, ok := c.types[t.Type]
	if !ok {
		return false // unknown type: answered empty without any scan
	}
	if !st.Indexed {
		return true
	}
	m := max(len([]rune(t.Value)), st.MaxLen)
	need := strdist.MaxEditsBelow(c.theta, m)
	return need < 0 || need > st.EditBudget
}

// defaultComparator and defaultFilter are what core would pick for
// movieConfig when no Comparator or Filter is set; the traced detect run
// wraps them.
func defaultComparator() sim.Comparator {
	c := movieConfig()
	return sim.Classifier{ThetaTuple: c.ThetaTuple, ThetaCand: c.ThetaCand}
}

func defaultFilter() sim.ObjectFilter { return sim.IndexFilter{} }

func parseXML(b []byte) (*xmltree.Document, error) { return xmltree.Parse(bytes.NewReader(b)) }
