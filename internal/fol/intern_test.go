package fol

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// buildSample builds one moderately shaped formula through the package
// constructors, with leaves from in.
func buildSample(in *Interner, i int) *Term {
	x := in.NumVar("x")
	y := in.NumVar(fmt.Sprintf("y%d", i%7))
	f := in.App("f", SortNum, x, y)
	p := in.BoolVar("p")
	return And(
		Or(p, Lt(Add(x, Mul(in.Int(2), y)), f)),
		Eq(Add(x, y), Add(y, x)),
		Implies(Le(x, y), Le(Neg(y), Neg(x))),
		Eq(Ite(p, x, y), f),
	)
}

func TestInternPointerIdentity(t *testing.T) {
	in := NewInterner()
	a := buildSample(in, 3)
	b := buildSample(in, 3)
	if a != b {
		t.Fatalf("structurally equal interned terms are different pointers:\n%s\n%s", a, b)
	}
	if !a.Interned() || a.ID() < 2 {
		t.Fatalf("root not interned or carries a reserved ID: interned=%v id=%d", a.Interned(), a.ID())
	}
	// Every subterm is interned in the same DAG, and IDs identify nodes.
	byID := make(map[uint32]*Term)
	Walk(a, func(u *Term) bool {
		if !u.Interned() {
			t.Fatalf("uninterned subterm %s under interned root", u)
		}
		if prev, ok := byID[u.ID()]; ok && prev != u {
			t.Fatalf("ID %d names two distinct nodes %s and %s", u.ID(), prev, u)
		}
		byID[u.ID()] = u
		return true
	})
	if in.Len() < len(byID) {
		t.Fatalf("interner Len %d < %d distinct IDs observed", in.Len(), len(byID))
	}
}

func TestInternSingletons(t *testing.T) {
	in := NewInterner()
	if in.True() != True() || in.False() != False() {
		t.Fatal("interner singletons differ from package singletons")
	}
	if True().ID() != 0 || False().ID() != 1 {
		t.Fatalf("singleton IDs: true=%d false=%d, want 0 and 1", True().ID(), False().ID())
	}
	// Interning a structural copy of a singleton yields the singleton.
	if got := in.Intern(&Term{Kind: KTrue, Sort: SortBool}); got != True() {
		t.Fatalf("interned copy of true is %p, want the singleton", got)
	}
	if in2 := NewInterner(); in2.Tag() == in.Tag() {
		t.Fatal("two interners share a tag")
	}
}

func TestInternMixedInterners(t *testing.T) {
	inA, inB := NewInterner(), NewInterner()
	a := buildSample(inA, 1)
	b := inB.Intern(a)
	if b == a {
		t.Fatal("intern across interners returned the foreign node")
	}
	if a.Key() != b.Key() {
		t.Fatal("cross-interner intern changed the canonical form")
	}
	// A smart constructor over mixed arguments picks one interner and rebuilds the
	// foreign argument into it, so the result's DAG is self-consistent.
	mixed := And(a, Not(b))
	Walk(mixed, func(u *Term) bool {
		if !u.Interned() {
			t.Fatalf("uninterned node %s in mixed-interner formula", u)
		}
		return true
	})
}

// TestKeyRaceInterned is the -race regression for key publication: many
// goroutines hammer Key() on one shared non-singleton term. The key is
// published at intern time, before any goroutine can hold the pointer, so
// this must be race-free.
func TestKeyRaceInterned(t *testing.T) {
	in := NewInterner()
	shared := buildSample(in, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if shared.Key() == "" {
					t.Error("empty key on interned term")
					return
				}
				if shared.String() != shared.Key() {
					t.Error("String and Key diverge")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEqualFastPathSameInterner(t *testing.T) {
	in := NewInterner()
	x, y := in.NumVar("x"), in.NumVar("y")
	if x.Equal(y) {
		t.Fatal("distinct interned terms compare equal")
	}
	if !x.Equal(in.NumVar("x")) {
		t.Fatal("interned term not equal to itself")
	}
}

func BenchmarkIntern(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := NewInterner()
			buildSample(in, i%7)
		}
	})
	b.Run("hit", func(b *testing.B) {
		// Steady state: every node already interned, so each build is
		// hash-cons lookups only.
		in := NewInterner()
		for i := 0; i < 7; i++ {
			buildSample(in, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildSample(in, i%7)
		}
	})
}

// internedGen builds random terms through every exported smart constructor
// over leaves minted by one interner, steering into the folding paths:
// constant sums and products, division by a constant, negated constants,
// and uninterpreted applications over nothing but boolean singletons.
type internedGen struct {
	r  *rand.Rand
	in *Interner
}

func (g *internedGen) num(depth int) *Term {
	if depth == 0 {
		switch g.r.Intn(3) {
		case 0:
			return g.in.NumVar(genNumVars[g.r.Intn(len(genNumVars))])
		case 1:
			return g.in.Int(int64(g.r.Intn(7) - 3))
		default:
			return g.in.Num(big.NewRat(int64(g.r.Intn(5)+1), int64(g.r.Intn(3)+1)))
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return Add(g.num(depth-1), g.num(depth-1), g.in.Int(int64(g.r.Intn(3))))
	case 1:
		return Sub(g.num(depth-1), g.num(depth-1))
	case 2:
		return Neg(g.num(depth - 1))
	case 3:
		return Mul(g.in.Int(int64(g.r.Intn(5)-2)), g.num(depth-1))
	case 4:
		return Div(g.num(depth-1), g.in.Int(int64(g.r.Intn(4)+1)))
	case 5:
		return Div(g.num(depth-1), g.num(depth-1))
	case 6:
		return Ite(g.bool(depth-1), g.num(depth-1), g.num(depth-1))
	default:
		return g.in.App("f", SortNum, g.num(depth-1), g.bool(depth-1))
	}
}

func (g *internedGen) bool(depth int) *Term {
	if depth == 0 {
		switch g.r.Intn(4) {
		case 0:
			return g.in.BoolVar(genBoolVars[g.r.Intn(len(genBoolVars))])
		case 1:
			return Bool(g.r.Intn(2) == 0)
		case 2:
			return g.in.App("g", SortBool, True(), False())
		default:
			return g.in.App("k", SortBool)
		}
	}
	a, b := g.num(depth-1), g.num(depth-1)
	p, q := g.bool(depth-1), g.bool(depth-1)
	switch g.r.Intn(12) {
	case 0:
		return Eq(a, b)
	case 1:
		return Le(a, b)
	case 2:
		return Lt(a, b)
	case 3:
		return Ge(a, b)
	case 4:
		return Gt(a, b)
	case 5:
		return Not(p)
	case 6:
		return And(p, q, g.bool(depth-1))
	case 7:
		return Or(p, q)
	case 8:
		return Implies(p, q)
	case 9:
		return Iff(p, q)
	case 10:
		return Ite(p, q, g.bool(depth-1))
	default:
		return TupleEq([]*Term{a, p}, []*Term{b, q})
	}
}

// TestEveryTermInterned is the representation invariant: whatever the
// smart constructors fold, rebuild, or substitute, every node they return
// is owned by an interner (or is a universal singleton), and its published
// key is its canonical rendering.
func TestEveryTermInterned(t *testing.T) {
	in := NewInterner()
	g := &internedGen{r: rand.New(rand.NewSource(20221019)), in: in}
	check := func(label string, root *Term) {
		t.Helper()
		Walk(root, func(u *Term) bool {
			if !u.Interned() {
				t.Fatalf("%s: uninterned node %s in %s", label, u, root)
			}
			if u.Key() != u.String() {
				t.Fatalf("%s: Key %q != String %q", label, u.Key(), u.String())
			}
			return true
		})
	}
	// Folding paths named explicitly, so the random walk cannot miss them.
	x, p := in.NumVar("x"), in.BoolVar("p")
	check("add-fold", Add(in.Int(2), in.Int(3)))
	check("mul-fold", Mul(in.Int(2), in.Num(big.NewRat(1, 3))))
	check("div-const", Div(x, in.Int(4)))
	check("neg-const", Neg(in.Int(4)))
	check("app-singletons", in.App("f", SortBool, True()))
	check("subst-into-app", Subst(in.App("f", SortBool, p), map[string]*Term{"p": True()}))
	check("rename", RenameVars(And(p, Lt(x, in.Int(1))), func(n string) string { return n + "'" }))
	for i := 0; i < 300; i++ {
		f := g.bool(3)
		check("random", f)
		check("rename", RenameVars(f, func(n string) string { return n + "_r" }))
		check("subst", Subst(f, map[string]*Term{
			"p": Bool(i%2 == 0),
			"q": in.BoolVar("q2"),
			"x": in.Int(int64(i % 5)),
			"y": Add(in.NumVar("z"), in.Int(1)),
		}))
	}
}
