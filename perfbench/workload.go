package main

import (
	"fmt"
	"math/rand"
	"sort"

	"spes/internal/corpus"
	"spes/internal/engine"
	"spes/internal/plan"
	"spes/internal/schema"
)

// pairKind says where a pair came from, which fixes its known answer.
type pairKind uint8

const (
	// kindCalcite is a Calcite rewrite-rule pair: equivalent by
	// construction unless the corpus marks it unsupported.
	kindCalcite pairKind = iota
	// kindWithin pairs two queries of one production cluster: rewrites of
	// one computation, equivalent by construction.
	kindWithin
	// kindCross pairs queries of two production clusters over the same
	// tables: the answer is unknown, so an Equivalent verdict is checked by
	// execution.
	kindCross
)

func (k pairKind) String() string {
	switch k {
	case kindCalcite:
		return "calcite"
	case kindWithin:
		return "within"
	}
	return "cross"
}

// sqlPair is one generated input pair. equivalent is the known answer:
// true when the pair is equivalent by construction, false when unknown.
type sqlPair struct {
	kind       pairKind
	sql1, sql2 string
	equivalent bool
}

// subSeed derives the random stream of one round (a log segment or a
// serve round) from the run's seed, so rounds are independent draws.
func subSeed(seed int64, round int) int64 {
	return seed*1_000_003 + int64(round)*7_919 + 1
}

// logSegment is the log-dedupe input of one batch: segment k of the
// production log, the within-cluster pair stream of the production
// workload generated with seed k+1 (every ordered combination of a
// cluster's members, hot recurrences included), in an arrival order drawn
// from the run's seed.
//
// The log itself does not depend on the run's seed. A segment's cost is
// dominated by its few viral clusters, whose query depth is drawn per
// cluster, so per-segment throughput varies by about 20%; a run has time for
// a dozen segments, and a log drawn per seed moved pairs_per_s by 13%
// between seeds. A fixed log, like the paper's fixed production log, keeps
// runs comparable; the seed still decides arrival order, and with it which
// pair leads each dedupe group and what the caches hold when.
func logSegment(k int, seed int64, scale float64) ([]engine.Pair, *schema.Catalog) {
	w := corpus.ProductionWorkload(int64(k+1), scale)
	var out []engine.Pair
	for _, members := range clusters(w) {
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				out = append(out, engine.Pair{
					ID:   fmt.Sprintf("%d-%d", members[i].ID, members[j].ID),
					SQL1: members[i].SQL,
					SQL2: members[j].SQL,
				})
			}
		}
	}
	r := rand.New(rand.NewSource(subSeed(seed, k)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, w.Catalog
}

// clusters groups the workload's queries by cluster, in first-seen order.
func clusters(w *corpus.Workload) [][]corpus.WorkloadQuery {
	idx := map[int]int{}
	var out [][]corpus.WorkloadQuery
	for _, q := range w.Queries {
		i, ok := idx[q.Cluster]
		if !ok {
			i = len(out)
			idx[q.Cluster] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], q)
	}
	return out
}

// serveCatalog is the schema the serve shards run with: the Calcite tables
// and the production tables side by side (their names do not overlap).
func serveCatalog() *schema.Catalog {
	cat := schema.NewCatalog()
	for _, src := range []*schema.Catalog{corpus.Catalog(), corpus.WorkloadCatalog()} {
		for _, name := range src.Names() {
			if err := cat.AddTable(src.MustTable(name)); err != nil {
				panic(err) // the two fixed catalogs never collide
			}
		}
	}
	return cat
}

// calcitePairs returns the Calcite pairs the plan builder accepts or
// declines as unsupported; pairs it rejects outright would measure the 400
// path instead of verification.
func calcitePairs(cat *schema.Catalog) []sqlPair {
	b := plan.NewBuilder(cat)
	ok := func(sql string) bool {
		_, err := b.BuildSQL(sql)
		return err == nil || plan.Unsupported(err)
	}
	var out []sqlPair
	for _, p := range corpus.CalcitePairs() {
		if ok(p.SQL1) && ok(p.SQL2) {
			out = append(out, sqlPair{kind: kindCalcite, sql1: p.SQL1, sql2: p.SQL2, equivalent: p.Equivalent})
		}
	}
	return out
}

// serveRound is the serve input of round k: the buildable Calcite pairs,
// the distinct within-cluster rewrites of the production workload generated
// with seed k+1, and as many cross-cluster pairs over the same table sets,
// drawn from the run's seed, all in an order drawn from the run's seed.
// Every pair of a round is distinct, so a round sent to a fresh cluster is
// all cold. As in logSegment, the production queries do not depend on the
// run's seed: per-workload query depth would otherwise move every timing
// between seeds by more than the run-to-run noise.
func serveRound(calcite []sqlPair, k int, seed int64, scale float64) []sqlPair {
	w := corpus.ProductionWorkload(int64(k+1), scale)
	r := rand.New(rand.NewSource(subSeed(seed, k)))
	out := append([]sqlPair(nil), calcite...)
	seen := map[[2]string]bool{}
	add := func(p sqlPair) bool {
		k := [2]string{p.sql1, p.sql2}
		if p.sql1 == p.sql2 || seen[k] {
			return false
		}
		seen[k] = true
		out = append(out, p)
		return true
	}

	byTables := map[string][]corpus.WorkloadQuery{}
	within := 0
	for _, members := range clusters(w) {
		var texts []corpus.WorkloadQuery
		dup := map[string]bool{}
		for _, q := range members {
			if !dup[q.SQL] {
				dup[q.SQL] = true
				texts = append(texts, q)
			}
		}
		for i := range texts {
			for j := i + 1; j < len(texts); j++ {
				if add(sqlPair{kind: kindWithin, sql1: texts[i].SQL, sql2: texts[j].SQL, equivalent: true}) {
					within++
				}
			}
		}
		key := texts[0].TableKey()
		byTables[key] = append(byTables[key], texts...)
	}

	keys := make([]string, 0, len(byTables))
	for k, qs := range byTables {
		if len(qs) > 1 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for cross, tries := 0, 0; cross < within && tries < 50*within && len(keys) > 0; tries++ {
		qs := byTables[keys[r.Intn(len(keys))]]
		a, b := qs[r.Intn(len(qs))], qs[r.Intn(len(qs))]
		if a.Cluster != b.Cluster && add(sqlPair{kind: kindCross, sql1: a.SQL, sql2: b.SQL}) {
			cross++
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
