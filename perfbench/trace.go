package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spes/internal/datagen"
	"spes/internal/engine"
	"spes/internal/fol"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/refute"
	"spes/internal/schema"
	"spes/internal/sqlparser"
	"spes/internal/store"
	"spes/internal/verify"
)

// Layer span names. A span is taken around a call into a layer's public
// functions; a layer's self time is its spans' durations minus the time
// their child spans cover.
const (
	layerParse     = "sqlparser"
	layerBuild     = "plan"
	layerEngine    = "engine"
	layerCache     = "engine.cache"
	layerNormalize = "normalize"
	layerVerify    = "verify"
	layerRefute    = "refute"
	layerLookup    = "store.lookup"
	layerAppend    = "store.append"
	layerHTTP      = "http"
)

type span struct {
	layer      string
	start, end time.Time
	parent     int // index of the enclosing span, -1 at top level
}

// tracer records the spans of one goroutine in memory. A nil tracer
// records nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	spans  []span
	open   []int
	busy   time.Duration
	busyAt time.Time
}

func (t *tracer) begin(layer string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{layer: layer, start: time.Now(), parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Now()
	t.open = t.open[:len(t.open)-1]
}

// startBusy and stopBusy bracket the goroutine's working loop; busy time
// not covered by a top-level span is reported as unattributed.
func (t *tracer) startBusy() {
	if t != nil {
		t.busyAt = time.Now()
	}
}

func (t *tracer) stopBusy() {
	if t != nil {
		t.busy += time.Since(t.busyAt)
	}
}

// profile folds tracers into per-layer self time and call counts.
type profile struct {
	self    map[string]time.Duration
	calls   map[string]int
	busy    time.Duration
	covered time.Duration
}

func newProfile() *profile {
	return &profile{self: map[string]time.Duration{}, calls: map[string]int{}}
}

func (p *profile) add(t *tracer) {
	for _, s := range t.spans {
		d := s.end.Sub(s.start)
		p.self[s.layer] += d
		p.calls[s.layer]++
		if s.parent >= 0 {
			p.self[t.spans[s.parent].layer] -= d
		} else {
			p.covered += d
		}
	}
	p.busy += t.busy
}

// perCall is a layer's mean self time per span in milliseconds.
func (p *profile) perCall(layer string) float64 {
	if p.calls[layer] == 0 {
		return 0
	}
	return ms(p.self[layer]) / float64(p.calls[layer])
}

// shares lists each layer's share of busy time, largest first.
func (p *profile) shares() []layerShare {
	var out []layerShare
	for l, d := range p.self {
		out = append(out, layerShare{l, frac(float64(d), float64(p.busy))})
	}
	out = append(out, layerShare{"(unattributed)", frac(float64(p.busy-p.covered), float64(p.busy))})
	sort.Slice(out, func(i, j int) bool { return out[i].share > out[j].share })
	return out
}

type layerShare struct {
	layer string
	share float64
}

// timedCache wraps the engine's obligation cache with spans.
type timedCache struct {
	c  *engine.ObligationCache
	tr *tracer
}

func (c *timedCache) Lookup(key string) (bool, bool) {
	sp := c.tr.begin(layerCache)
	defer c.tr.end(sp)
	return c.c.Lookup(key)
}

func (c *timedCache) Store(key string, valid bool) {
	sp := c.tr.begin(layerCache)
	defer c.tr.end(sp)
	c.c.Store(key, valid)
}

// timedStore wraps the durable store with spans; it serves as both the
// verdict store and the witness store of a replayed Verifier.
type timedStore struct {
	s  *store.Store
	tr *tracer
}

func (s *timedStore) LookupVerdict(key string) (bool, bool) {
	sp := s.tr.begin(layerLookup)
	defer s.tr.end(sp)
	return s.s.LookupVerdict(key)
}

func (s *timedStore) AppendVerdict(key string, valid bool) {
	sp := s.tr.begin(layerAppend)
	defer s.tr.end(sp)
	s.s.AppendVerdict(key, valid)
}

func (s *timedStore) LookupWitness(key string) ([]byte, bool) {
	sp := s.tr.begin(layerLookup)
	defer s.tr.end(sp)
	return s.s.LookupWitness(key)
}

func (s *timedStore) AppendWitness(key string, data []byte) {
	sp := s.tr.begin(layerAppend)
	defer s.tr.end(sp)
	s.s.AppendWitness(key, data)
}

// replayer is the staged replay of verified pairs: parse, build,
// normalize, Check, and Refute timed one by one on a single goroutine,
// with the obligation cache and the durable store behind timing wrappers.
type replayer struct {
	cat     *schema.Catalog
	tr      *tracer
	builder *plan.Builder
	nz      *normalize.Normalizer
	base    verify.Config
	stores  map[string]*timedStore // by shard ID
	openT   []time.Duration

	pairs     int
	stats     verify.Stats
	witnesses int
	fresh     []*refute.Witness // witnesses found by a search, not the store
	built     []plan.Node
	normed    []plan.Node
}

func newReplayer(cat *schema.Catalog, refuteBudget int) *replayer {
	tr := &tracer{}
	return &replayer{
		cat:     cat,
		tr:      tr,
		builder: plan.NewBuilder(cat),
		nz:      normalize.New(normalize.Options{}),
		base: verify.Config{
			Cache:            &timedCache{c: engine.NewObligationCache(0), tr: tr},
			Interner:         fol.NewInterner(),
			RefuteBudget:     refuteBudget,
			ConstraintDigest: cat.ConstraintDigest(),
		},
		stores: map[string]*timedStore{},
	}
}

// openStore opens (timed) a shard's store for the replay to read and
// append through.
func (rp *replayer) openStore(shard, dir string) error {
	t0 := time.Now()
	st, err := store.OpenDir(dir)
	if err != nil {
		return err
	}
	rp.openT = append(rp.openT, time.Since(t0))
	rp.stores[shard] = &timedStore{s: st, tr: rp.tr}
	return nil
}

func (rp *replayer) close() error {
	var err error
	for _, st := range rp.stores {
		if e := st.s.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// pair replays one pair; shard names the store it was served from ("" for
// none).
func (rp *replayer) pair(sql1, sql2, shard string) {
	tr := rp.tr
	tr.startBusy()
	defer tr.stopBusy()
	rp.pairs++
	sp := tr.begin(layerParse)
	a1, err1 := sqlparser.ParseQuery(sql1)
	a2, err2 := sqlparser.ParseQuery(sql2)
	tr.end(sp)
	if err1 != nil || err2 != nil {
		return
	}
	sp = tr.begin(layerBuild)
	q1, err1 := rp.builder.Build(a1)
	q2, err2 := rp.builder.Build(a2)
	tr.end(sp)
	if err1 != nil || err2 != nil {
		return // unsupported: the engine stops here too
	}
	sp = tr.begin(layerNormalize)
	n1, n2 := rp.nz.Normalize(q1), rp.nz.Normalize(q2)
	tr.end(sp)

	cfg := rp.base
	if st := rp.stores[shard]; st != nil {
		cfg.Store, cfg.Witnesses = st, st
	}
	sp = tr.begin(layerVerify)
	v := verify.NewWithConfig(cfg)
	out := v.Check(n1, n2)
	tr.end(sp)
	if !out.Full {
		sp = tr.begin(layerRefute)
		w := v.Refute(n1, n2)
		tr.end(sp)
		if w != nil {
			rp.witnesses++
			if v.Stats().WitnessHits == 0 {
				rp.fresh = append(rp.fresh, w)
			}
		}
	}
	addStats(&rp.stats, v.Stats())
	rp.built = append(rp.built, q1, q2)
	rp.normed = append(rp.normed, n1, n2)
}

// shrinkSteps counts the rows the refuter's shrink loop removed for the
// witnesses it found: every accepted shrink step deletes one row, so the
// count is the size of the candidate database the search drew at the
// witness's round minus the witness's size. The candidate is regenerated
// from the witness's seed the way refute.Search draws it.
func (rp *replayer) shrinkSteps() int {
	steps := 0
	for _, w := range rp.fresh {
		tables := make([]*schema.Table, len(w.Tables))
		for i, td := range w.Tables {
			tables[i] = rp.cat.MustTable(td.Name)
		}
		gen := datagen.NewGenerator(w.Seed, datagen.Options{MaxRows: 5})
		var db map[string]int
		for r := 0; r <= w.Round; r++ {
			db = map[string]int{}
			for name, t := range gen.ForTables(tables) {
				db[name] = len(t.Rows)
			}
		}
		for _, td := range w.Tables {
			steps += db[td.Name] - len(td.Rows)
		}
	}
	return steps
}

func addStats(acc *verify.Stats, s verify.Stats) {
	acc.SolverQueries += s.SolverQueries
	acc.VeriCardCalls += s.VeriCardCalls
	acc.Candidates += s.Candidates
	acc.ModelRounds += s.ModelRounds
	acc.TheoryConflicts += s.TheoryConflicts
	acc.CoreChecks += s.CoreChecks
	acc.SolverSessions += s.SolverSessions
	acc.SuffixChecks += s.SuffixChecks
	acc.PrefixReuse += s.PrefixReuse
	acc.RefuteSearches += s.RefuteSearches
	acc.RefuteRounds += s.RefuteRounds
	acc.WitnessHits += s.WitnessHits
}

// replayLayers sets the per-layer metrics the staged replay measures,
// normalized per pair of the traced batch or round it stands for.
func (rp *replayer) replayLayers(lm map[string]float64, perPairs int) *profile {
	p := newProfile()
	p.add(rp.tr)
	n := float64(perPairs)
	st := rp.stats
	nodes := func(ns []plan.Node) float64 {
		total := 0
		for _, q := range ns {
			total += plan.CountNodes(q)
		}
		return frac(float64(total), float64(len(ns)))
	}
	lm["normalize.ms"] = ms(p.self[layerNormalize]) / n
	lm["normalize.nodes_out"] = nodes(rp.normed)
	lm["plan.nodes_per_query"] = nodes(rp.built)
	lm["verify.check_ms"] = ms(p.self[layerVerify]) / n
	lm["verify.vericard_calls"] = float64(st.VeriCardCalls) / n
	lm["verify.candidates"] = float64(st.Candidates) / n
	lm["smt.solver_queries"] = float64(st.SolverQueries) / n
	lm["smt.model_rounds"] = float64(st.ModelRounds) / n
	lm["smt.theory_conflicts"] = float64(st.TheoryConflicts) / n
	lm["smt.core_checks"] = float64(st.CoreChecks) / n
	lm["smt.sessions"] = float64(st.SolverSessions) / n
	lm["smt.prefix_reuse_frac"] = frac(float64(st.PrefixReuse), float64(st.SuffixChecks))
	lm["refute.ms"] = ms(p.self[layerRefute]) / n
	lm["refute.searches"] = float64(st.RefuteSearches) / n
	lm["refute.rounds"] = float64(st.RefuteRounds) / n
	lm["refute.shrink_steps"] = float64(rp.shrinkSteps()) / n
	lm["refute.witness_frac"] = frac(float64(rp.witnesses), float64(st.RefuteSearches))
	lm["store.lookup_ms"] = p.perCall(layerLookup)
	lm["store.append_ms"] = p.perCall(layerAppend)
	var open time.Duration
	for _, d := range rp.openT {
		open += d
	}
	lm["store.open_ms"] = frac(ms(open), float64(len(rp.openT)))
	return p
}

// runtimeLayers sets the Go runtime metrics of the traced region.
func runtimeLayers(lm map[string]float64, m meter, pairs float64) {
	lm["runtime.gc_cpu_frac"] = frac(m.gcCPU, m.totalCPU)
	lm["runtime.gc_cycles_per_kpair"] = 1000 * m.gcCycles / pairs
	lm["runtime.allocs_per_pair"] = m.allocObjs / pairs
}

// zeroLayers starts a per-layer map with every metric at 0, so a layer a
// workload does not reach reports 0 rather than going missing.
func zeroLayers() map[string]float64 {
	lm := map[string]float64{}
	for _, s := range perLayer {
		lm[s.name] = 0
	}
	return lm
}

// unattributed is the share of traced busy time no layer span covers.
func unattributed(ps ...*profile) float64 {
	var busy, covered time.Duration
	for _, p := range ps {
		busy += p.busy
		covered += p.covered
	}
	return frac(float64(busy-covered), float64(busy))
}

// prediction formats a layer prediction's share and whether it held; a
// failed one is printed, not tuned away.
func prediction(claim string, share float64, held bool) string {
	verdict := "held"
	if !held {
		verdict = "FAILED"
	}
	return fmt.Sprintf("prediction: %s: %.1f%% -> %s", claim, 100*share, verdict)
}

func formatShares(p *profile) string {
	var parts []string
	for _, s := range p.shares() {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", s.layer, 100*s.share))
	}
	return strings.Join(parts, ", ")
}
