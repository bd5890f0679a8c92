package fol

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// ti is the interner the package's unit tests mint their leaves in.
var ti = NewInterner()

func TestConstructorsFoldConstants(t *testing.T) {
	cases := []struct {
		name string
		got  *Term
		want *Term
	}{
		{"add-consts", Add(ti.Int(2), ti.Int(3)), ti.Int(5)},
		{"add-zero", Add(ti.NumVar("x"), ti.Int(0)), ti.NumVar("x")},
		// Every summand cancels, leaving the empty linear combination. (An
		// argument-less Add has no interner to own its zero.)
		{"add-empty", Add(Add(ti.NumVar("x"), ti.NumVar("y")), Neg(Add(ti.NumVar("y"), ti.NumVar("x")))), ti.Int(0)},
		{"mul-consts", Mul(ti.Int(2), ti.Int(3)), ti.Int(6)},
		{"mul-zero", Mul(ti.NumVar("x"), ti.Int(0)), ti.Int(0)},
		{"mul-one", Mul(ti.NumVar("x"), ti.Int(1)), ti.NumVar("x")},
		{"neg-const", Neg(ti.Int(4)), ti.Int(-4)},
		{"neg-neg", Neg(Neg(ti.NumVar("x"))), ti.NumVar("x")},
		{"sub-self", Sub(ti.NumVar("x"), ti.NumVar("x")), ti.Int(0)},
		{"div-const", Div(ti.NumVar("x"), ti.Int(2)), Mul(ti.Num(big.NewRat(1, 2)), ti.NumVar("x"))},
		{"eq-consts-true", Eq(ti.Int(3), ti.Int(3)), True()},
		{"eq-consts-false", Eq(ti.Int(3), ti.Int(4)), False()},
		{"eq-self", Eq(ti.NumVar("x"), ti.NumVar("x")), True()},
		{"le-consts", Le(ti.Int(3), ti.Int(4)), True()},
		{"lt-self", Lt(ti.NumVar("x"), ti.NumVar("x")), False()},
		{"not-true", Not(True()), False()},
		{"not-not", Not(Not(ti.BoolVar("p"))), ti.BoolVar("p")},
		{"and-true-unit", And(ti.BoolVar("p"), True()), ti.BoolVar("p")},
		{"and-false-zero", And(ti.BoolVar("p"), False()), False()},
		{"and-dedupe", And(ti.BoolVar("p"), ti.BoolVar("p")), ti.BoolVar("p")},
		{"and-complement", And(ti.BoolVar("p"), Not(ti.BoolVar("p"))), False()},
		{"or-true-zero", Or(ti.BoolVar("p"), True()), True()},
		{"or-complement", Or(ti.BoolVar("p"), Not(ti.BoolVar("p"))), True()},
		{"iff-self", Iff(ti.BoolVar("p"), ti.BoolVar("p")), True()},
		{"iff-true", Iff(True(), ti.BoolVar("p")), ti.BoolVar("p")},
		{"iff-false", Iff(False(), ti.BoolVar("p")), Not(ti.BoolVar("p"))},
		{"ite-const-cond", Ite(True(), ti.Int(1), ti.Int(2)), ti.Int(1)},
		{"ite-same-branches", Ite(ti.BoolVar("p"), ti.Int(1), ti.Int(1)), ti.Int(1)},
		{"implies-desugar", Implies(ti.BoolVar("p"), ti.BoolVar("q")), Or(Not(ti.BoolVar("p")), ti.BoolVar("q"))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !c.got.Equal(c.want) {
				t.Errorf("got %v, want %v", c.got, c.want)
			}
		})
	}
}

func TestNotRewritesComparisons(t *testing.T) {
	x, y := ti.NumVar("x"), ti.NumVar("y")
	if got := Not(Le(x, y)); !got.Equal(Lt(y, x)) {
		t.Errorf("Not(x<=y) = %v, want y<x", got)
	}
	if got := Not(Lt(x, y)); !got.Equal(Le(y, x)) {
		t.Errorf("Not(x<y) = %v, want y<=x", got)
	}
}

func TestEqCanonicalOrder(t *testing.T) {
	x, y := ti.NumVar("x"), ti.NumVar("y")
	if Eq(x, y).Key() != Eq(y, x).Key() {
		t.Errorf("Eq is not canonically ordered: %v vs %v", Eq(x, y), Eq(y, x))
	}
	if Iff(ti.BoolVar("p"), ti.BoolVar("q")).Key() != Iff(ti.BoolVar("q"), ti.BoolVar("p")).Key() {
		t.Error("Iff is not canonically ordered")
	}
}

func TestBoolIteExpands(t *testing.T) {
	p, a, b := ti.BoolVar("p"), ti.BoolVar("a"), ti.BoolVar("b")
	got := Ite(p, a, b)
	want := Or(And(p, a), And(Not(p), b))
	if !got.Equal(want) {
		t.Errorf("bool ite = %v, want %v", got, want)
	}
}

func TestSubst(t *testing.T) {
	x, y := ti.NumVar("x"), ti.NumVar("y")
	f := And(Lt(x, ti.Int(5)), Eq(y, Add(x, ti.Int(1))))
	got := Subst(f, map[string]*Term{"x": ti.Int(2)})
	want := And(Lt(ti.Int(2), ti.Int(5)), Eq(y, ti.Int(3)))
	if !got.Equal(want) {
		t.Errorf("subst got %v, want %v", got, want)
	}
	// Folding should kick in: Lt(2,5) is true, so the conjunct vanishes.
	if !got.Equal(Eq(y, ti.Int(3))) {
		t.Errorf("subst did not fold: %v", got)
	}
}

func TestRenameVars(t *testing.T) {
	f := And(ti.BoolVar("p"), Lt(ti.NumVar("x"), ti.NumVar("y")))
	got := RenameVars(f, func(n string) string { return n + "'" })
	want := And(ti.BoolVar("p'"), Lt(ti.NumVar("x'"), ti.NumVar("y'")))
	if !got.Equal(want) {
		t.Errorf("rename got %v, want %v", got, want)
	}
}

func TestVars(t *testing.T) {
	f := And(ti.BoolVar("p"), Lt(ti.NumVar("x"), Add(ti.NumVar("x"), ti.NumVar("y"))))
	vs := Vars(f)
	if len(vs) != 3 {
		t.Fatalf("got %d vars, want 3: %v", len(vs), vs)
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
	}
	for _, n := range []string{"p", "x", "y"} {
		if !names[n] {
			t.Errorf("missing variable %q", n)
		}
	}
}

func TestTupleEq(t *testing.T) {
	a := []*Term{ti.NumVar("x"), ti.BoolVar("p")}
	b := []*Term{ti.NumVar("y"), ti.BoolVar("q")}
	got := TupleEq(a, b)
	want := And(Eq(ti.NumVar("x"), ti.NumVar("y")), Iff(ti.BoolVar("p"), ti.BoolVar("q")))
	if !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("TupleEq over mismatched lengths should panic")
		}
	}()
	TupleEq(a, b[:1])
}

func TestKeyEqualsStructuralEquality(t *testing.T) {
	// Property: Key() agrees with Equal() on randomly built terms.
	gen := newTermGen(rand.New(rand.NewSource(7)))
	for i := 0; i < 500; i++ {
		a := gen.boolTerm(3)
		b := gen.boolTerm(3)
		if (a.Key() == b.Key()) != a.Equal(b) {
			t.Fatalf("Key/Equal disagree:\n a=%v\n b=%v", a, b)
		}
	}
}

// TestSimplificationPreservesSemantics checks that rebuilding a random term
// through the smart constructors (via a no-op rename) never changes its value
// under a random interpretation.
func TestSimplificationPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	gen := newTermGen(r)
	cfg := &quick.Config{MaxCount: 400, Rand: r}
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := newTermGen(rr)
		term := g.boolTerm(4)
		rebuilt := RenameVars(term, func(n string) string { return n })
		in := g.randomInterp(rr)
		v1, err1 := Eval(term, in)
		v2, err2 := Eval(rebuilt, in)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return v1.Bool == v2.Bool
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	_ = gen
}

// termGen builds small random terms over a fixed vocabulary for property
// tests.
type termGen struct{ r *rand.Rand }

func newTermGen(r *rand.Rand) *termGen { return &termGen{r: r} }

var genNumVars = []string{"x", "y", "z"}
var genBoolVars = []string{"p", "q"}

func (g *termGen) numTerm(depth int) *Term {
	if depth == 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return ti.NumVar(genNumVars[g.r.Intn(len(genNumVars))])
		}
		return ti.Int(int64(g.r.Intn(7) - 3))
	}
	switch g.r.Intn(4) {
	case 0:
		return Add(g.numTerm(depth-1), g.numTerm(depth-1))
	case 1:
		return Sub(g.numTerm(depth-1), g.numTerm(depth-1))
	case 2:
		return Neg(g.numTerm(depth - 1))
	default:
		return Mul(ti.Int(int64(g.r.Intn(5)-2)), g.numTerm(depth-1))
	}
}

func (g *termGen) boolTerm(depth int) *Term {
	if depth == 0 || g.r.Intn(4) == 0 {
		switch g.r.Intn(4) {
		case 0:
			return ti.BoolVar(genBoolVars[g.r.Intn(len(genBoolVars))])
		case 1:
			return Bool(g.r.Intn(2) == 0)
		case 2:
			return Eq(g.numTerm(2), g.numTerm(2))
		default:
			return Lt(g.numTerm(2), g.numTerm(2))
		}
	}
	switch g.r.Intn(5) {
	case 0:
		return And(g.boolTerm(depth-1), g.boolTerm(depth-1))
	case 1:
		return Or(g.boolTerm(depth-1), g.boolTerm(depth-1))
	case 2:
		return Not(g.boolTerm(depth - 1))
	case 3:
		return Iff(g.boolTerm(depth-1), g.boolTerm(depth-1))
	default:
		return Le(g.numTerm(2), g.numTerm(2))
	}
}

func (g *termGen) randomInterp(r *rand.Rand) Interp {
	vars := make(map[string]Value)
	for _, n := range genNumVars {
		vars[n] = NumValue(big.NewRat(int64(r.Intn(11)-5), 1))
	}
	for _, n := range genBoolVars {
		vars[n] = BoolValue(r.Intn(2) == 0)
	}
	return Interp{Vars: vars}
}

func TestSizeAndWalk(t *testing.T) {
	f := And(ti.BoolVar("p"), Lt(ti.NumVar("x"), ti.Int(3)))
	if got := Size(f); got != 5 {
		t.Errorf("Size = %d, want 5 for %v", got, f)
	}
}
