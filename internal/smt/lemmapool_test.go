package smt

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spes/internal/fol"
)

// replayAtoms mints n (at most 112) distinct interned comparison atoms over
// eight numeric variables, named by prefix so tests do not share
// vocabulary.
func replayAtoms(prefix string, n int) []*fol.Term {
	vars := make([]*fol.Term, 8)
	for i := range vars {
		vars[i] = tin.NumVar(fmt.Sprintf("%s%d", prefix, i))
	}
	atoms := make([]*fol.Term, 0, n)
	for _, cmp := range []func(a, b *fol.Term) *fol.Term{fol.Lt, fol.Le} {
		for _, a := range vars {
			for _, b := range vars {
				if a != b && len(atoms) < n {
					atoms = append(atoms, cmp(a, b))
				}
			}
		}
	}
	return atoms
}

// randomLemma draws a lemma of one to four distinct atoms from the universe.
func randomLemma(r *rand.Rand, universe []*fol.Term) []LemmaLit {
	k := 1 + r.Intn(4)
	lits := make([]LemmaLit, 0, k)
	for _, i := range r.Perm(len(universe))[:k] {
		lits = append(lits, LemmaLit{AtomKey: universe[i].Key(), Pos: r.Intn(2) == 0})
	}
	return lits
}

// poolInstance returns an empty instance replaying from pool.
func poolInstance(pool *LemmaPool) *instance {
	in := newInstance()
	in.shared = pool
	return in
}

// fullScan is the reference replay: walk the whole pool in index order and
// report every not-yet-asserted lemma the vocabulary covers, marking it in
// on. It is the replay the pool's index must reproduce exactly.
func fullScan(in *instance, pool *LemmaPool, on *[]bool) []int32 {
	var out []int32
	for i, lits := range pool.Lemmas() {
		for len(*on) <= i {
			*on = append(*on, false)
		}
		if !(*on)[i] && in.covers(lits) {
			(*on)[i] = true
			out = append(out, int32(i))
		}
	}
	return out
}

// TestSharedReplayMatchesFullScan interleaves vocabulary growth, pool
// admissions and replays at random: after every replay, the indexed replay
// must have picked exactly the lemmas a full pool scan picks, in the same
// order.
func TestSharedReplayMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		universe := replayAtoms(fmt.Sprintf("rp%d_", seed), 6+r.Intn(20))
		pool := NewLemmaPool()
		in, ref := poolInstance(pool), poolInstance(pool)
		var on []bool
		var total int
		for step := 0; step < 200; step++ {
			switch op := r.Intn(10); {
			case op < 3:
				a := universe[r.Intn(len(universe))]
				in.atomLit(a)
				ref.atomLit(a)
			case op < 7:
				pool.Add(randomLemma(r, universe))
			default:
				_, got := in.coveredShared()
				want := fullScan(ref, pool, &on)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: indexed replay %v, full scan %v", seed, step, got, want)
				}
				total += len(got)
				in.replayShared() // asserts nothing more: the cursors are current
			}
		}
		if _, got := in.coveredShared(); !slices.Equal(got, fullScan(ref, pool, &on)) {
			t.Fatalf("seed %d: final replays disagree", seed)
		}
		if seed == 1 && total == 0 {
			t.Fatalf("seed %d: no replay covered anything; the test exercises nothing", seed)
		}
	}
}

// TestSharedReplayConcurrentAdd replays into several instances while other
// goroutines admit lemmas; run under -race. Every lemma the final
// vocabulary covers must have been picked up exactly once.
func TestSharedReplayConcurrentAdd(t *testing.T) {
	universe := replayAtoms("rc_", 24)
	pool := NewLemmaPool()
	var adders, replayers sync.WaitGroup
	for w := 0; w < 2; w++ {
		adders.Add(1)
		go func(seed int64) {
			defer adders.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				pool.Add(randomLemma(r, universe))
			}
		}(int64(w + 1))
	}
	done := make(chan struct{})
	go func() { adders.Wait(); close(done) }()
	for w := 0; w < 4; w++ {
		replayers.Add(1)
		go func(seed int64) {
			defer replayers.Done()
			r := rand.New(rand.NewSource(100 + seed))
			in := poolInstance(pool)
			var got []int32
			finished := false
			for !finished {
				select {
				case <-done:
					finished = true
				default:
				}
				in.atomLit(universe[r.Intn(len(universe))])
				lemmas, covered := in.coveredShared()
				got = append(got, covered...)
				for _, i := range covered {
					in.block(coreOf(in, lemmas[i]))
				}
			}
			_, covered := in.coveredShared() // pick up the last admissions
			got = append(got, covered...)
			slices.Sort(got)
			var on []bool
			want := fullScan(in, pool, &on)
			if !slices.Equal(got, want) {
				t.Errorf("replayer %d: asserted %v, final vocabulary covers %v", seed, got, want)
			}
		}(int64(w))
	}
	replayers.Wait()
}

// coreOf resolves a pool lemma against an instance's vocabulary.
func coreOf(in *instance, lits []LemmaLit) []theoryLit {
	core := make([]theoryLit, len(lits))
	for i, l := range lits {
		core[i] = theoryLit{atom: in.atomByKey[l.AtomKey], pos: l.Pos}
	}
	return core
}

// uncoveredPool fills a pool to capacity with lemmas that each pair one of
// the vocabulary atoms with an atom outside it, and returns an instance
// that has registered the vocabulary.
func uncoveredPool(tb testing.TB) (*LemmaPool, *instance) {
	vocab := replayAtoms("ru_", 8)
	outside := replayAtoms("ro_", 40)
	pool := NewLemmaPool()
	for i := 0; pool.Len() < maxPoolLemmas; i++ {
		pool.Add([]LemmaLit{
			{AtomKey: vocab[i%len(vocab)].Key(), Pos: i%3 == 0},
			{AtomKey: outside[i%len(outside)].Key(), Pos: i%5 == 0},
			{AtomKey: outside[(i/len(outside)+i+1)%len(outside)].Key(), Pos: i%7 == 0},
		})
		if i > 100*maxPoolLemmas {
			tb.Fatal("could not fill the pool with distinct lemmas")
		}
	}
	in := poolInstance(pool)
	for _, a := range vocab {
		in.atomLit(a)
	}
	return pool, in
}

// TestSharedReplayUncoveredAllocsZero is the allocation gate: replaying a
// full pool whose every lemma touches the vocabulary but none is covered
// by it must allocate nothing, even with the cursors rewound so each run
// re-examines all of them.
func TestSharedReplayUncoveredAllocsZero(t *testing.T) {
	_, in := uncoveredPool(t)
	allocs := testing.AllocsPerRun(20, func() {
		in.sharedAtoms, in.sharedSeen = 0, 0
		in.replayShared()
	})
	if in.sharedSeen != maxPoolLemmas {
		t.Fatalf("replay saw a pool of %d lemmas, want a full one (%d)", in.sharedSeen, maxPoolLemmas)
	}
	if _, covered := in.coveredShared(); len(covered) != 0 {
		t.Fatalf("replay covered %v; the pool was built to cover nothing", covered)
	}
	if allocs != 0 {
		t.Fatalf("replay over an uncovering pool allocated %v times per run, want 0", allocs)
	}
}

// TestLemmaStoreDedupeCollidingCores records cores that an additive
// fingerprint over (atom ID, polarity) codes cannot tell apart: {p, ¬q} and
// {¬p, q} have equal code sums. Both must be kept, while a re-ordered
// repeat of either is still recognized.
func TestLemmaStoreDedupeCollidingCores(t *testing.T) {
	atoms := replayAtoms("ld_", 2)
	p, q := atoms[0], atoms[1]
	ls := newLemmaStore()
	ls.record([]theoryLit{{atom: p, pos: true}, {atom: q, pos: false}})
	ls.record([]theoryLit{{atom: p, pos: false}, {atom: q, pos: true}})
	ls.record([]theoryLit{{atom: q, pos: false}, {atom: p, pos: true}})
	if len(ls.lemmas) != 2 {
		t.Fatalf("stored %d lemmas, want 2 (two distinct cores, one repeat)", len(ls.lemmas))
	}
}
