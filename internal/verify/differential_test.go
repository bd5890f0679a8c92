package verify

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spes/internal/normalize"
	"spes/internal/plan"
)

// Golden verdict parity. The files under testdata/ record, for every pair
// of the randomized soundness distribution at its full iteration count,
// the Outcome (both the Cardinal and the Full bit) that two independent
// arms agreed on when they were written: hash-consed against tree-allocated
// term construction, and incremental sessions against one-shot solving.
// Both alternative arms shared every layer below the term representation
// and the solving strategy with the default path, so on these fixed-seed
// inputs a golden record checks exactly what the live comparison checked.
// The suites regenerate each pair from its seed, confirm it is the recorded
// pair, and hold the default pipeline to the recorded Outcome; -short
// checks a prefix.

// goldenVerdict is one recorded pair and its agreed Outcome.
type goldenVerdict struct {
	Label    string `json:"label"`
	SQL1     string `json:"sql1"`
	SQL2     string `json:"sql2"`
	Cardinal bool   `json:"cardinal"`
	Full     bool   `json:"full"`
}

// checkGolden verifies each generated pair and compares it with the
// golden record at the same position.
func checkGolden(t *testing.T, file string, pairs []goldenVerdict) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenVerdict
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if len(pairs) > len(want) {
		t.Fatalf("%s holds %d records, the suite generated %d pairs", file, len(want), len(pairs))
	}
	b := plan.NewBuilder(testCatalog(t))
	for i, p := range pairs {
		w := want[i]
		if p.Label != w.Label || p.SQL1 != w.SQL1 || p.SQL2 != w.SQL2 {
			t.Fatalf("%s record %d: generator drifted from the golden pair\ngot:  %s | %s | %s\nwant: %s | %s | %s",
				file, i, p.Label, p.SQL1, p.SQL2, w.Label, w.SQL1, w.SQL2)
		}
		q1, err := b.BuildSQL(p.SQL1)
		if err != nil {
			t.Fatalf("build %q: %v", p.SQL1, err)
		}
		q2, err := b.BuildSQL(p.SQL2)
		if err != nil {
			t.Fatalf("build %q: %v", p.SQL2, err)
		}
		nz := normalize.New(normalize.Options{})
		got := New().Check(nz.Normalize(q1), nz.Normalize(q2))
		if got != (Outcome{Cardinal: w.Cardinal, Full: w.Full}) {
			t.Fatalf("%s record %d (%s): verdict diverges from the golden file\nsql1: %s\nsql2: %s\ngot:  %+v\nwant: %+v",
				file, i, p.Label, p.SQL1, p.SQL2, got, Outcome{Cardinal: w.Cardinal, Full: w.Full})
		}
	}
}

// randomizedPairs replays the randomized soundness distribution: per
// iteration a self-pair (always proved), a preserving rewrite (usually
// proved), and a breaking perturbation (usually not proved).
func randomizedPairs(seed int64, iterations int) []goldenVerdict {
	r := rand.New(rand.NewSource(seed))
	var out []goldenVerdict
	for i := 0; i < iterations; i++ {
		q := randQuery(r)
		sql := q.sql()
		out = append(out, goldenVerdict{Label: "self", SQL1: sql, SQL2: sql})
		out = append(out, goldenVerdict{Label: "rewrite", SQL1: sql, SQL2: preservingRewrite(q, r)})
		out = append(out, goldenVerdict{Label: "perturbed", SQL1: sql, SQL2: breakingPerturbation(q, r)})
	}
	return out
}

// crossPairs pairs unrelated random queries, covering the not-proved and
// coincidentally-equivalent regions of the verdict space.
func crossPairs(seed int64, iterations int) []goldenVerdict {
	r := rand.New(rand.NewSource(seed))
	out := make([]goldenVerdict, 0, iterations)
	for i := 0; i < iterations; i++ {
		a, b := randQuery(r), randQuery(r)
		out = append(out, goldenVerdict{Label: "cross", SQL1: a.sql(), SQL2: b.sql()})
	}
	return out
}

// shortOr returns n, or short under -short.
func shortOr(n, short int) int {
	if testing.Short() {
		return short
	}
	return n
}

// TestDifferentialVerdictParity holds the randomized soundness
// distribution to the verdicts the hash-consed and tree-allocated term
// constructions agreed on.
func TestDifferentialVerdictParity(t *testing.T) {
	checkGolden(t, "differential_verdict_parity.golden.json", randomizedPairs(20220701, shortOr(60, 15)))
}

// TestDifferentialVerdictParityCrossPairs is the cross-pair counterpart.
func TestDifferentialVerdictParityCrossPairs(t *testing.T) {
	checkGolden(t, "differential_verdict_parity_cross_pairs.golden.json", crossPairs(314159, shortOr(40, 10)))
}
