package fol

import (
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
)

// Interner hash-conses terms: within one interner, structurally equal terms
// are the same pointer, carry the same dense uint32 ID, and share one
// eagerly computed canonical key. Every term is owned by an interner.
// Downstream layers exploit this three ways:
//
//   - identity is a pointer (or ID) comparison instead of a tree walk or a
//     canonical-string compare;
//   - maps key on uint32 IDs instead of serialized strings, and formulas
//     traverse as DAGs (visit-once per ID) instead of trees;
//   - Key() is a field read, published before the node is, so terms are
//     safe to share across goroutines.
//
// Leaves come only from the Interner's own constructors (Var, Num, App,
// ...). The package-level smart constructors (And, Eq, Add, ...) build
// their result in the interner that owns their arguments, so code that
// builds formulas from interned leaves never has to thread an interner
// handle explicitly.
//
// The boolean singletons True/False are universal: they hold the reserved
// IDs 0 and 1 in every interner and may mix freely with any interner's
// terms.
//
// All methods are safe for concurrent use; an engine's workers share one
// interner so the term DAG (and every downstream cache keyed on its IDs) is
// shared across the whole batch.
type Interner struct {
	mu      sync.Mutex
	buckets map[uint64][]*Term
	n       uint32
	tag     uint64
	retired atomic.Bool
}

// internerTags hands out process-unique tags. Tags (not interner pointer
// addresses, which the allocator can reuse) make cache keys derived from
// term IDs collision-free across interner lifetimes.
var internerTags atomic.Uint64

// NewInterner returns an empty interner pre-seeded with the universal
// boolean singletons at IDs 0 and 1.
func NewInterner() *Interner {
	in := &Interner{
		buckets: make(map[uint64][]*Term, 64),
		n:       2, // IDs 0 and 1 are reserved for the singletons
		tag:     internerTags.Add(1),
	}
	in.buckets[termTrue.hash] = []*Term{termTrue}
	in.buckets[termFalse.hash] = []*Term{termFalse}
	return in
}

// Tag returns a process-unique identifier for this interner. Combined with
// a term ID it forms a compact cache key that can never alias a key minted
// by a different interner (unlike the interner's address, which the garbage
// collector may reuse).
func (in *Interner) Tag() uint64 { return in.tag }

// Retire marks this interner as belonging to a closed epoch. Retirement is
// advisory: the interner keeps working — in-flight verifiers that captured it
// finish their pair on it soundly — but long-lived holders (session tables,
// pooled verifiers) poll Retired and drop state keyed on its IDs before the
// next unit of work, so a retired epoch's DAG becomes unreachable and is
// collected. Retiring is idempotent and safe concurrently with interning.
func (in *Interner) Retire() { in.retired.Store(true) }

// Retired reports whether Retire has been called.
func (in *Interner) Retired() bool { return in.retired.Load() }

// Len returns the number of distinct term nodes interned, including the two
// singletons. It is also the exclusive upper bound of issued IDs, so
// ID-indexed visit-once slices can be sized with it.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return int(in.n)
}

// Intern returns this interner's canonical node for t, interning the whole
// subtree as needed. Terms already owned by this interner return in O(1).
// Terms owned by a different interner are hash-consed structurally (the
// originals are never mutated, so shared inputs stay race-free).
func (in *Interner) Intern(t *Term) *Term { return in.intern(t, false) }

// intern is the hash-consing core. owned reports that t was freshly built by
// a constructor in this package and is unreachable by any other goroutine,
// so on a miss the node can be adopted in place instead of copied.
func (in *Interner) intern(t *Term, owned bool) *Term {
	if t == nil || t.in == in || t == termTrue || t == termFalse {
		return t
	}
	args := t.Args
	var copied []*Term
	for i, a := range args {
		ia := in.intern(a, false)
		if ia != a && copied == nil {
			copied = make([]*Term, len(args))
			copy(copied, args)
		}
		if copied != nil {
			copied[i] = ia
		}
	}
	if copied != nil {
		args = copied
	}
	h := hashNode(t.Kind, t.Sort, t.Name, t.Rat, args)

	in.mu.Lock()
	defer in.mu.Unlock()
	for _, c := range in.buckets[h] {
		if c.Kind != t.Kind || c.Sort != t.Sort || c.Name != t.Name || len(c.Args) != len(args) {
			continue
		}
		if t.Kind == KNum && c.Rat.Cmp(t.Rat) != 0 {
			continue
		}
		same := true
		for i := range args {
			if c.Args[i] != args[i] { // children interned: pointer identity
				same = false
				break
			}
		}
		if same {
			return c
		}
	}
	nt := t
	if !owned || copied != nil {
		nt = &Term{Kind: t.Kind, Sort: t.Sort, Name: t.Name, Rat: t.Rat, Args: args}
	}
	nt.in = in
	nt.id = in.n
	nt.hash = h
	// Eager canonical key: children are already keyed, so this is one
	// concatenation per node, and the key is published before the node.
	var b strings.Builder
	nt.write1(&b, (*Term).writeKey)
	nt.key = b.String()
	in.n++
	in.buckets[h] = append(in.buckets[h], nt)
	return nt
}

// adopt hash-conses a node freshly built by a smart constructor.
func (in *Interner) adopt(t *Term) *Term { return in.intern(t, true) }

// ownerOf returns the interner that owns a term built over args: the first
// owned argument's. Smart constructors fold away every node whose
// arguments are all universal singletons, so a caller reaching ownerOf
// always holds an owned argument; finding none is a construction bug.
func ownerOf(args []*Term) *Interner {
	for _, a := range args {
		if a.in != nil {
			return a.in
		}
	}
	panic("fol: composite term has no interned argument")
}

func ownerOf2(a, b *Term) *Interner {
	if a.in != nil {
		return a.in
	}
	if b.in != nil {
		return b.in
	}
	panic("fol: composite term has no interned argument")
}

// --- leaf constructors ------------------------------------------------------

// True returns the universal boolean constant true (ID 0).
func (in *Interner) True() *Term { return termTrue }

// False returns the universal boolean constant false (ID 1).
func (in *Interner) False() *Term { return termFalse }

// Bool returns the universal boolean constant for v.
func (in *Interner) Bool(v bool) *Term { return Bool(v) }

// Var returns the interned variable of the given sort.
func (in *Interner) Var(name string, s Sort) *Term {
	return in.adopt(&Term{Kind: KVar, Sort: s, Name: name})
}

// NumVar returns the interned numeric variable named name.
func (in *Interner) NumVar(name string) *Term { return in.Var(name, SortNum) }

// BoolVar returns the interned boolean variable named name.
func (in *Interner) BoolVar(name string) *Term { return in.Var(name, SortBool) }

// Num returns the interned numeric constant with value r (copied).
func (in *Interner) Num(r *big.Rat) *Term {
	return in.adopt(&Term{Kind: KNum, Sort: SortNum, Rat: new(big.Rat).Set(r)})
}

// Int returns the interned numeric constant with integer value v.
func (in *Interner) Int(v int64) *Term {
	return in.adopt(&Term{Kind: KNum, Sort: SortNum, Rat: big.NewRat(v, 1)})
}

// App returns the interned uninterpreted application with the given result
// sort. A zero-argument application is an uninterpreted constant. App is
// the one composite constructor on the interner: its arguments may all be
// universal singletons (or absent), leaving nothing to take an owner from.
func (in *Interner) App(name string, s Sort, args ...*Term) *Term {
	return in.adopt(&Term{Kind: KApp, Sort: s, Name: name, Args: args})
}

// --- structural hashing ----------------------------------------------------

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashNode(k Kind, s Sort, name string, rat *big.Rat, args []*Term) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(k)) * fnvPrime64
	h = (h ^ uint64(s)) * fnvPrime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime64
	}
	if rat != nil {
		h = hashInt(h, rat.Num())
		h = hashInt(h, rat.Denom())
	}
	for _, a := range args {
		// Children are interned before the parent is hashed, so a.hash is
		// their structural hash; mixing it keeps hashNode O(len(args)).
		x := a.hash
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * fnvPrime64
			x >>= 8
		}
	}
	return h
}

func hashInt(h uint64, z *big.Int) uint64 {
	if z.Sign() < 0 {
		h = (h ^ 1) * fnvPrime64
	}
	for _, w := range z.Bits() {
		x := uint64(w)
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * fnvPrime64
			x >>= 8
		}
	}
	return h
}

func init() {
	termTrue.hash = hashNode(KTrue, SortBool, "", nil, nil)
	termFalse.hash = hashNode(KFalse, SortBool, "", nil, nil)
	termFalse.id = 1
}
