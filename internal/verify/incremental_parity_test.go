package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"spes/internal/plan"
	"spes/internal/schema"
)

// TestIncrementalVerdictParity holds the randomized soundness distribution
// (a second seed) to the verdicts incremental sessions and one-shot
// solving agreed on; see differential_test.go for the golden files.
func TestIncrementalVerdictParity(t *testing.T) {
	checkGolden(t, "incremental_verdict_parity.golden.json", randomizedPairs(20260805, shortOr(60, 15)))
}

// TestIncrementalVerdictParityCrossPairs is the cross-pair counterpart.
func TestIncrementalVerdictParityCrossPairs(t *testing.T) {
	checkGolden(t, "incremental_verdict_parity_cross_pairs.golden.json", crossPairs(271828, shortOr(40, 10)))
}

// TestIncrementalVerdictParityMultiCandidate stresses the workload
// sessions exist for: self-join pairs whose predicate and projection are
// relabeled by a permutation, forcing VeriVec to refute a lexicographic
// stream of wrong bijections on one shared prefix before reaching the
// right one. Every pair must be proved and, with the permutation applied
// to only one side's predicate, every broken pair must fail.
func TestIncrementalVerdictParityMultiCandidate(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tbl := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Type: schema.Int, NotNull: true}}}
	iterations := 12
	if testing.Short() {
		iterations = 4
	}
	for iter := 0; iter < iterations; iter++ {
		k := 3 + iter%2
		inputs := make([]plan.Node, k)
		for i := range inputs {
			inputs[i] = &plan.Table{Meta: tbl}
		}
		chain := func(order []int) plan.Expr {
			var p plan.Expr
			for i := 0; i+1 < len(order); i++ {
				cmp := &plan.Bin{Op: plan.OpLt, L: &plan.ColRef{Index: order[i]}, R: &plan.ColRef{Index: order[i+1]}}
				if p == nil {
					p = cmp
				} else {
					p = &plan.Bin{Op: plan.OpAnd, L: p, R: cmp}
				}
			}
			return p
		}
		identity := make([]int, k)
		for i := range identity {
			identity[i] = i
		}
		perm := r.Perm(k)
		proj := func(order []int) []plan.NamedExpr {
			out := make([]plan.NamedExpr, k)
			for i := range out {
				out[i] = plan.NamedExpr{Name: fmt.Sprintf("c%d", i), E: &plan.ColRef{Index: order[i]}}
			}
			return out
		}
		q1 := &plan.SPJ{Inputs: inputs, Pred: chain(identity), Proj: proj(identity)}
		q2 := &plan.SPJ{Inputs: inputs, Pred: chain(perm), Proj: proj(perm)}
		// Same predicate relabeling, projection left unpermuted: the sides
		// return different row sets unless the permutation is the identity.
		q3 := &plan.SPJ{Inputs: inputs, Pred: chain(perm), Proj: proj(identity)}

		if got := New().Check(q1, q2); !got.Full {
			t.Fatalf("k=%d perm=%v: permuted self-join pair should be proved, got %+v", k, perm, got)
		}
		gotBroken := New().Check(q1, q3)
		isIdentity := true
		for i, p := range perm {
			if p != i {
				isIdentity = false
			}
		}
		if !isIdentity && gotBroken.Full {
			t.Fatalf("k=%d perm=%v: broken pair must not be proved", k, perm)
		}
	}
}
