package smt

import (
	"math/big"

	"spes/internal/fol"
)

// linForm is a linear combination Σ coeffs[k]·vars[k] + konst, where each
// key k is the interned term ID of an "opaque" term the arithmetic theory
// treats as a variable: a plain numeric variable, an uninterpreted
// application, a non-linear product, or a symbolic division. All terms in
// one linForm must share an interner (theoryCheckExplainOn interns its
// literals up front), or IDs would not identify terms.
type linForm struct {
	coeffs map[uint32]*big.Rat
	opaque map[uint32]*fol.Term // term ID -> opaque term
	konst  *big.Rat
}

func newLinForm() *linForm {
	return &linForm{
		coeffs: make(map[uint32]*big.Rat),
		opaque: make(map[uint32]*fol.Term),
		konst:  new(big.Rat),
	}
}

func (l *linForm) addTerm(t *fol.Term, c *big.Rat) {
	key := t.ID()
	if cur, ok := l.coeffs[key]; ok {
		cur.Add(cur, c)
		if cur.Sign() == 0 {
			delete(l.coeffs, key)
			delete(l.opaque, key)
		}
		return
	}
	l.coeffs[key] = new(big.Rat).Set(c)
	l.opaque[key] = t
}

// addScaled accumulates c·o into l.
func (l *linForm) addScaled(o *linForm, c *big.Rat) {
	l.konst.Add(l.konst, new(big.Rat).Mul(o.konst, c))
	for k, oc := range o.coeffs {
		t := o.opaque[k]
		l.addTerm(t, new(big.Rat).Mul(oc, c))
	}
}

// isConst reports whether l has no variable part.
func (l *linForm) isConst() bool { return len(l.coeffs) == 0 }

// linearize decomposes a numeric term into a linear form. Sub-terms the
// linear theory cannot interpret become opaque variables (and are separately
// visible to congruence closure, which sees their internal structure).
func linearize(t *fol.Term) *linForm {
	l := newLinForm()
	linearizeInto(t, big.NewRat(1, 1), l)
	return l
}

func linearizeInto(t *fol.Term, c *big.Rat, l *linForm) {
	switch t.Kind {
	case fol.KNum:
		l.konst.Add(l.konst, new(big.Rat).Mul(c, t.Rat))
	case fol.KAdd:
		for _, a := range t.Args {
			linearizeInto(a, c, l)
		}
	case fol.KNeg:
		linearizeInto(t.Args[0], new(big.Rat).Neg(c), l)
	case fol.KMul:
		// fol.Mul normalizes constants into a single leading factor.
		if t.Args[0].Kind == fol.KNum {
			cc := new(big.Rat).Mul(c, t.Args[0].Rat)
			rest := t.Args[1:]
			if len(rest) == 1 {
				linearizeInto(rest[0], cc, l)
			} else {
				l.addTerm(fol.Mul(rest...), cc)
			}
			return
		}
		l.addTerm(t, c) // non-linear product: opaque
	case fol.KVar, fol.KApp, fol.KDiv, fol.KIte:
		l.addTerm(t, c)
	default:
		l.addTerm(t, c)
	}
}

// diff returns linearize(a) - linearize(b).
func diff(a, b *fol.Term) *linForm {
	l := linearize(a)
	l.addScaled(linearize(b), big.NewRat(-1, 1))
	return l
}
