package smt

import "spes/internal/fol"

// tin is the interner the package's unit tests mint their leaves in.
var tin = fol.NewInterner()

// checkOne solves a single already-lifted case without case splitting, on
// the same instance machinery the session path uses.
func (s *Solver) checkOne(f *fol.Term) Result {
	switch f.Kind {
	case fol.KTrue:
		return Sat
	case fol.KFalse:
		return Unsat
	}
	s.ensureSetup()
	return s.run(s.newCaseInstance(s.Interner.Intern(f)))
}

// theoryCheckExplain runs one combined theory check on a fresh congruence
// engine and cache bound to tin, the interner the tests' atoms live in.
func theoryCheckExplain(lits []theoryLit, budget int) (consistent, certain bool, expl []int) {
	return theoryCheckExplainOn(newEUF(tin), lits, budget, newTheoryCache(tin))
}

func theoryCheck(lits []theoryLit, budget int) (consistent, certain bool) {
	consistent, certain, _ = theoryCheckExplain(lits, budget)
	return consistent, certain
}
