package spes

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"spes/internal/normalize"
	"spes/internal/refute"
	"spes/internal/verify"
)

// goldenVerdict is one recorded pipeline-fuzz pair and the Outcome its
// reference arms agreed on.
type goldenVerdict struct {
	Label    string `json:"label"`
	SQL1     string `json:"sql1"`
	SQL2     string `json:"sql2"`
	Cardinal bool   `json:"cardinal"`
	Full     bool   `json:"full"`
}

// checkPipelineFuzzGolden replays the whole-pipeline fuzz distribution
// (the TestPipelineFuzz generator) from seed and holds the default
// pipeline to the golden file's recorded Outcome for every pair, including
// the unproved ones; -short checks a prefix. The file was written by
// running every pair through the default path and a reference arm that
// shared all of smt/sat/euf with it, asserting the two agreed. Self-pairs
// keep their own ground truth: each must be proved.
func checkPipelineFuzzGolden(t *testing.T, seed int64, file string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenVerdict
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	cat, err := ParseCatalog(fuzzDDL)
	if err != nil {
		t.Fatal(err)
	}
	g := &fuzzGen{r: rand.New(rand.NewSource(seed))}
	n := len(want)
	if testing.Short() {
		n = 15
	}
	nz := normalize.New(normalize.Options{})
	for i, w := range want[:n] {
		sql1, sql2 := g.query(2), g.query(2)
		if sql1 != w.SQL1 || sql2 != w.SQL2 {
			t.Fatalf("%s record %d: generator drifted from the golden pair\ngot:  %s | %s\nwant: %s | %s",
				file, i, sql1, sql2, w.SQL1, w.SQL2)
		}
		q1, err := BuildPlan(cat, sql1)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := BuildPlan(cat, sql2)
		if err != nil {
			t.Fatal(err)
		}
		n1, n2 := nz.Normalize(q1), nz.Normalize(q2)
		wantOut := verify.Outcome{Cardinal: w.Cardinal, Full: w.Full}
		if got := verify.New().Check(n1, n2); got != wantOut {
			t.Fatalf("%s record %d: verdict diverges from the golden file\n%s\n%s\ngot:  %+v\nwant: %+v",
				file, i, sql1, sql2, got, wantOut)
		}
		if !verify.New().Check(n1, n1).Full {
			t.Fatalf("failed to prove self-equivalence: %s", sql1)
		}
	}
}

// TestPipelineFuzzDifferential holds the fuzz distribution to the verdicts
// the hash-consed and tree-allocated term constructions agreed on.
func TestPipelineFuzzDifferential(t *testing.T) {
	checkPipelineFuzzGolden(t, 314159, "pipeline_fuzz_differential.golden.json")
}

// TestRefutationDifferential is the acceptance check for the three-valued
// verdict pipeline, run over the whole-pipeline fuzz distribution with the
// refutation pass armed:
//
//   - every Refuted verdict must carry a witness, and the witness must
//     replay — executing both plans over it through internal/exec must
//     reproduce the recorded, differing output bags;
//   - no Equivalent verdict may be refutable: the same bounded search that
//     backs Refuted must come up empty on every proved pair. The symbolic
//     prover and the concrete executor audit each other — a hit here is a
//     soundness bug in one of them.
func TestRefutationDifferential(t *testing.T) {
	cat, err := ParseCatalog(fuzzDDL)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(271828))
	g := &fuzzGen{r: r}
	iterations := 50
	if testing.Short() {
		iterations = 12
	}
	var refuted, equivalent int
	for iter := 0; iter < iterations; iter++ {
		sql1, sql2 := g.query(2), g.query(2)
		q1, err := BuildPlan(cat, sql1)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := BuildPlan(cat, sql2)
		if err != nil {
			t.Fatal(err)
		}
		res := VerifyPlans(q1, q2, Options{RefuteBudget: 32})
		switch res.Verdict {
		case Refuted:
			refuted++
			if res.Witness == nil {
				t.Fatalf("Refuted without a witness\n%s\n%s", sql1, sql2)
			}
			// Replay against the raw plans: the witness was found on the
			// normalized pair, so this also re-checks that normalization
			// preserved semantics on this concrete database.
			if err := res.Witness.Replay(q1, q2); err != nil {
				t.Fatalf("witness does not replay: %v\n%s\n%s\n%s", err, sql1, sql2, res.Witness)
			}
		case Equivalent:
			if res.Witness != nil {
				t.Fatalf("Equivalent verdict carries a witness\n%s\n%s", sql1, sql2)
			}
		}
		// Random pairs are almost never equivalent, so the cross-check arm
		// gets its guaranteed-provable pair from each query against itself:
		// proved Equivalent, then handed to the same bounded search that
		// backs Refuted, which must come up empty.
		self := VerifyPlans(q1, q1, Options{RefuteBudget: 32})
		if self.Verdict != Equivalent {
			t.Fatalf("self-pair not proved: %s\n%s", self.Verdict, sql1)
		}
		equivalent++
		nz := normalize.New(normalize.Options{})
		if w, _ := refute.Search(nz.Normalize(q1), nz.Normalize(q1), refute.Options{Budget: 32}); w != nil {
			t.Fatalf("SOUNDNESS VIOLATION: proved equivalent but refutable\n%s\n%s", sql1, w)
		}
	}
	// The fuzz distribution must actually exercise both interesting arms.
	if refuted == 0 {
		t.Error("sanity: fuzz run refuted nothing; the refutation arm was not exercised")
	}
	if equivalent == 0 {
		t.Error("sanity: fuzz run proved nothing; the cross-check arm was not exercised")
	}
}
