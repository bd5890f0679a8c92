package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spes/internal/corpus"
	"spes/internal/schema"
	"spes/internal/store"
)

// fixtureVerdict is one pair of the store fixture's batches with the
// verdict the build that wrote the fixture returned for it.
type fixtureVerdict struct {
	Batch    string `json:"batch"`
	ID       string `json:"id"`
	Verdict  string `json:"verdict"`
	SQL1     string `json:"sql1"`
	SQL2     string `json:"sql2"`
	Cardinal bool   `json:"cardinal"`
}

// TestStoreFixtureAnswersWarm opens a copy of a durable store written by an
// earlier build (testdata/storefixture: the store directory, written by
// one engine batch over Calcite pairs and one over constraint-tier pairs,
// plus the verdicts those batches returned) and re-runs both batches on
// it. Every obligation must be answered from the store — zero solver
// queries — with identical verdicts. A store hit requires the obligation's
// canonical key to be byte-identical to the key the earlier build wrote,
// so this pins the durable key format, constraint-digest namespacing
// included, across changes to the term representation. Lemma records key
// their atoms with the same serialization; the store must still decode
// them.
func TestStoreFixtureAnswersWarm(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "storefixture", "verdicts.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []fixtureVerdict
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join("testdata", "storefixture", "store")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Lemmas()) == 0 {
		t.Fatal("fixture store decoded no lemma records")
	}

	catalogs := map[string]*schema.Catalog{
		"calcite":     corpus.Catalog(),
		"constraints": corpus.ConstraintCatalog(),
	}
	for _, name := range []string{"calcite", "constraints"} {
		var pairs []Pair
		var expect []fixtureVerdict
		for _, w := range want {
			if w.Batch == name {
				pairs = append(pairs, Pair{ID: w.ID, SQL1: w.SQL1, SQL2: w.SQL2})
				expect = append(expect, w)
			}
		}
		if len(pairs) == 0 {
			t.Fatalf("fixture has no %s pairs", name)
		}
		res, stats := VerifyBatch(catalogs[name], pairs, Options{Workers: 1, Store: st, ShareLemmas: true})
		if stats.SolverQueries != 0 || stats.StoreHits == 0 {
			t.Errorf("%s: fixture store did not answer warm: solver queries %d, store hits %d",
				name, stats.SolverQueries, stats.StoreHits)
		}
		for i, r := range res {
			if r.Verdict.String() != expect[i].Verdict || r.Cardinal != expect[i].Cardinal {
				t.Errorf("%s pair %s: verdict %v (cardinal %v), fixture recorded %s (cardinal %v)",
					name, r.ID, r.Verdict, r.Cardinal, expect[i].Verdict, expect[i].Cardinal)
			}
		}
	}
}
