package smt

import (
	"sync"

	"spes/internal/fol"
)

// LemmaLit is one literal of a pooled theory lemma, identified by the
// canonical key of its atom rather than an interned ID. Canonical keys are
// interner-independent: they survive epoch rotation, cross verifier
// boundaries, and round-trip through the durable store unchanged.
type LemmaLit struct {
	AtomKey string
	Pos     bool
}

// LemmaPool shares theory lemmas across solvers, pairs, and — through a
// sink — processes. A session's private lemmaStore dies with the session;
// the pool is the long-lived tier above it.
//
// Soundness: every pooled lemma is a blocked theory core — a conjunction
// l₁ ∧ … ∧ lₖ of LRA/EUF literals over free variables that the theory layer
// refuted, so the clause ¬l₁ ∨ … ∨ ¬lₖ holds in EVERY theory model,
// regardless of which formula exposed it and regardless of what the
// variables denote in any particular query pair. Theory validity is closed
// under re-reading the variable names, which is exactly what cross-pair
// replay does: symbolic generators restart their namespaces per pair, so an
// atom key like "(< c1 c2)" recurs meaning different columns — and the
// lemma holds for all of them. Replaying a pooled lemma into an instance
// therefore can only prune propositional models the theory would have
// refuted anyway; it can never flip a verdict.
//
// The pool is append-only and bounded: once full it stops remembering, never
// misbehaves. All methods are safe for concurrent use; replay readers take a
// snapshot of the append-only slice and index it lock-free.
//
// byAtom is the replay index: for every atom key, the ascending pool indices
// of the lemmas that mention it. A lemma can only be covered by a
// vocabulary that registers each of its atoms, so an instance finds every
// lemma its new atoms may have completed by reading their posting lists
// instead of walking the pool (see instance.coveredShared).
type LemmaPool struct {
	mu     sync.Mutex
	lemmas [][]LemmaLit
	byAtom map[string][]int32
	seen   map[uint64]bool
	sink   func([]LemmaLit)
}

// maxPoolLemmas bounds the pool and with it the replay index. Lemmas are
// minimized cores (a handful of literals each), so this is a few hundred KB
// at worst.
const maxPoolLemmas = 2048

// NewLemmaPool returns an empty pool.
func NewLemmaPool() *LemmaPool {
	return &LemmaPool{byAtom: make(map[string][]int32), seen: make(map[uint64]bool)}
}

// SetSink registers a callback invoked (outside the pool lock) for every
// lemma newly admitted after the call — the durable-store forwarding hook.
// Seed the pool from the store BEFORE setting the sink so loaded lemmas are
// not echoed back.
func (p *LemmaPool) SetSink(fn func([]LemmaLit)) {
	p.mu.Lock()
	p.sink = fn
	p.mu.Unlock()
}

// Add admits a lemma given by canonical atom keys, deduplicating
// order-independently. It reports whether the lemma was new.
func (p *LemmaPool) Add(lits []LemmaLit) bool {
	if p == nil || len(lits) == 0 {
		return false
	}
	fp := poolFingerprint(lits)
	p.mu.Lock()
	if p.seen[fp] || len(p.lemmas) >= maxPoolLemmas {
		p.mu.Unlock()
		return false
	}
	cp := append([]LemmaLit(nil), lits...)
	idx := int32(len(p.lemmas))
	p.seen[fp] = true
	p.lemmas = append(p.lemmas, cp)
	for i, l := range cp {
		if !mentions(cp[:i], l.AtomKey) {
			p.byAtom[l.AtomKey] = append(p.byAtom[l.AtomKey], idx)
		}
	}
	sink := p.sink
	p.mu.Unlock()
	if sink != nil {
		sink(cp)
	}
	return true
}

// Len returns the number of pooled lemmas.
func (p *LemmaPool) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lemmas)
}

// Lemmas returns a copy of the pooled lemmas, in admission order.
func (p *LemmaPool) Lemmas() [][]LemmaLit {
	if p == nil {
		return nil
	}
	view := p.view()
	out := make([][]LemmaLit, len(view))
	for i, l := range view {
		out[i] = append([]LemmaLit(nil), l...)
	}
	return out
}

// view snapshots the append-only lemma slice. Existing elements are never
// mutated, so readers may index the snapshot lock-free.
func (p *LemmaPool) view() [][]LemmaLit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lemmas
}

// candidates reads one replay's candidates under a single lock acquisition.
// The replaying instance last replayed when the pool held seen lemmas and
// has registered the atoms fresh since. The candidates are the posting-list
// entries of the fresh atoms and, if it had registered atoms before (old),
// every lemma admitted since: such a lemma may lie entirely over the old
// atoms. It returns the lemma snapshot and dst extended with the
// candidates, unsorted and possibly repeated.
func (p *LemmaPool) candidates(fresh []*fol.Term, old bool, seen int, dst []int32) ([][]LemmaLit, []int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	limit := int32(len(p.lemmas))
	if old {
		for i := int32(seen); i < limit; i++ {
			dst = append(dst, i)
		}
		limit = int32(seen) // later entries are already in
	}
	for _, t := range fresh {
		for _, i := range p.byAtom[t.Key()] {
			if i >= limit {
				break // posting lists ascend
			}
			dst = append(dst, i)
		}
	}
	return p.lemmas, dst
}

// mentions reports whether lits has a literal over the atom key.
func mentions(lits []LemmaLit, key string) bool {
	for _, l := range lits {
		if l.AtomKey == key {
			return true
		}
	}
	return false
}

// addCore admits a freshly blocked theory core, translating interned atoms
// to their canonical keys (an O(1) field read for interned terms).
func (p *LemmaPool) addCore(core []theoryLit) {
	if p == nil || len(core) == 0 {
		return
	}
	lits := make([]LemmaLit, len(core))
	for i, l := range core {
		lits[i] = LemmaLit{AtomKey: l.atom.Key(), Pos: l.pos}
	}
	p.Add(lits)
}

// poolFingerprint hashes a lemma order-independently (XOR of per-literal
// FNV hashes), mirroring the session-local lemmaStore dedupe.
func poolFingerprint(lits []LemmaLit) uint64 {
	var fp uint64
	for _, l := range lits {
		h := uint64(fnvOffset)
		for i := 0; i < len(l.AtomKey); i++ {
			h = (h ^ uint64(l.AtomKey[i])) * fnvPrime
		}
		if l.Pos {
			h = (h ^ 0x9e3779b97f4a7c15) * fnvPrime
		}
		fp ^= h
	}
	if fp == 0 {
		fp = 1
	}
	return fp
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)
