package smt

import (
	"math/big"
	"slices"
)

// simplex is a general simplex solver for linear rational arithmetic in the
// style of Dutertre and de Moura ("A Fast Linear-Arithmetic Solver for
// DPLL(T)"): variables carry optional lower/upper delta-rational bounds, a
// tableau defines basic variables as linear combinations of non-basic ones,
// and check() pivots with Bland's rule until all bounds hold or a conflict
// row proves infeasibility.
//
// Usage is build-then-check: allocate variables, add rows, assert bounds,
// then call check. probeEqual supports the theory-combination layer's
// implied-equality detection by re-checking strengthened copies.
type simplex struct {
	n        int
	lower    []*delta
	upper    []*delta
	lowerWhy []int // originating constraint tag per lower bound (-1 unknown)
	upperWhy []int
	rows     map[int]map[int]*big.Rat // basic variable -> linear form over non-basic variables
	isBasic  []bool
	beta     []delta
	inited   bool
	// conflictWhy holds the constraint tags explaining the most recent
	// infeasibility verdict (nil when unavailable).
	conflictWhy []int
}

func newSimplex() *simplex {
	return &simplex{rows: make(map[int]map[int]*big.Rat)}
}

// newVar allocates a fresh variable and returns its index.
func (s *simplex) newVar() int {
	v := s.n
	s.n++
	s.lower = append(s.lower, nil)
	s.upper = append(s.upper, nil)
	s.lowerWhy = append(s.lowerWhy, -1)
	s.upperWhy = append(s.upperWhy, -1)
	s.isBasic = append(s.isBasic, false)
	s.beta = append(s.beta, dInt(0))
	return v
}

// defineSlack allocates a slack variable defined as the given linear
// combination (which may mention basic variables; they are expanded). The
// slack becomes basic.
func (s *simplex) defineSlack(coeffs map[int]*big.Rat) int {
	v := s.newVar()
	row := make(map[int]*big.Rat)
	for x, c := range coeffs {
		s.accumulate(row, x, c)
	}
	s.rows[v] = row
	s.isBasic[v] = true
	return v
}

// accumulate adds c*x into row, expanding x if it is basic.
func (s *simplex) accumulate(row map[int]*big.Rat, x int, c *big.Rat) {
	if s.isBasic[x] {
		for y, cy := range s.rows[x] {
			s.accumulate(row, y, new(big.Rat).Mul(c, cy))
		}
		return
	}
	if cur, ok := row[x]; ok {
		cur.Add(cur, c)
		if cur.Sign() == 0 {
			delete(row, x)
		}
		return
	}
	if c.Sign() == 0 {
		return
	}
	row[x] = new(big.Rat).Set(c)
}

// assertLower tightens x's lower bound; it reports false on an immediate
// bound conflict (lower exceeds upper). why tags the originating
// constraint for conflict explanations.
func (s *simplex) assertLower(x int, b delta, why int) bool {
	if s.lower[x] == nil || b.cmp(*s.lower[x]) > 0 {
		bb := b.clone()
		s.lower[x] = &bb
		s.lowerWhy[x] = why
	}
	if s.upper[x] != nil && s.lower[x].cmp(*s.upper[x]) > 0 {
		s.conflictWhy = []int{s.lowerWhy[x], s.upperWhy[x]}
		return false
	}
	return true
}

// assertUpper tightens x's upper bound; it reports false on an immediate
// bound conflict.
func (s *simplex) assertUpper(x int, b delta, why int) bool {
	if s.upper[x] == nil || b.cmp(*s.upper[x]) < 0 {
		bb := b.clone()
		s.upper[x] = &bb
		s.upperWhy[x] = why
	}
	if s.lower[x] != nil && s.lower[x].cmp(*s.upper[x]) > 0 {
		s.conflictWhy = []int{s.lowerWhy[x], s.upperWhy[x]}
		return false
	}
	return true
}

// initAssign sets every non-basic variable to a value within its bounds and
// recomputes basic variables from the tableau.
func (s *simplex) initAssign() {
	for x := 0; x < s.n; x++ {
		if s.isBasic[x] {
			continue
		}
		switch {
		case s.lower[x] != nil:
			s.beta[x] = s.lower[x].clone()
		case s.upper[x] != nil:
			s.beta[x] = s.upper[x].clone()
		default:
			s.beta[x] = dInt(0)
		}
	}
	for b, row := range s.rows {
		s.beta[b] = s.rowValue(row)
	}
	s.inited = true
}

func (s *simplex) rowValue(row map[int]*big.Rat) delta {
	v := dInt(0)
	for x, c := range row {
		v = v.add(s.beta[x].scale(c))
	}
	return v
}

// check runs the simplex main loop. It returns true iff the asserted bounds
// are satisfiable.
func (s *simplex) check() bool {
	if !s.inited {
		s.initAssign()
	}
	// Quick bound-consistency scan (covers variables in no row).
	for x := 0; x < s.n; x++ {
		if s.lower[x] != nil && s.upper[x] != nil && s.lower[x].cmp(*s.upper[x]) > 0 {
			s.conflictWhy = []int{s.lowerWhy[x], s.upperWhy[x]}
			return false
		}
	}
	for {
		b := s.findViolating()
		if b == -1 {
			return true
		}
		row := s.rows[b]
		if s.lower[b] != nil && s.beta[b].cmp(*s.lower[b]) < 0 {
			j := s.findPivot(row, true)
			if j == -1 {
				s.explainRow(b, row, true)
				return false
			}
			s.pivotAndUpdate(b, j, s.lower[b].clone())
		} else {
			j := s.findPivot(row, false)
			if j == -1 {
				s.explainRow(b, row, false)
				return false
			}
			s.pivotAndUpdate(b, j, s.upper[b].clone())
		}
	}
}

// explainRow records the infeasibility explanation for a stuck row: the
// violated bound of the basic variable plus the blocking bound of every
// non-basic variable in its row (the standard Dutertre–de Moura
// explanation). The row's contributions follow in ascending variable
// index, so one infeasible tableau always yields one explanation: its
// literal order seeds core minimization, and through it the learned core
// and the lemma the store persists.
func (s *simplex) explainRow(b int, row map[int]*big.Rat, increase bool) {
	vars := make([]int, 0, len(row))
	for x, c := range row {
		if c.Sign() != 0 {
			vars = append(vars, x)
		}
	}
	slices.Sort(vars)
	why := make([]int, 0, 1+len(vars))
	if increase {
		why = append(why, s.lowerWhy[b])
	} else {
		why = append(why, s.upperWhy[b])
	}
	for _, x := range vars {
		pos := row[x].Sign() > 0
		if !increase {
			pos = !pos
		}
		if pos {
			why = append(why, s.upperWhy[x])
		} else {
			why = append(why, s.lowerWhy[x])
		}
	}
	s.conflictWhy = why
}

// findViolating returns the smallest-index basic variable outside its
// bounds, or -1 (Bland's rule, part one).
func (s *simplex) findViolating() int {
	for b := 0; b < s.n; b++ {
		if !s.isBasic[b] {
			continue
		}
		if s.lower[b] != nil && s.beta[b].cmp(*s.lower[b]) < 0 {
			return b
		}
		if s.upper[b] != nil && s.beta[b].cmp(*s.upper[b]) > 0 {
			return b
		}
	}
	return -1
}

// findPivot returns the smallest-index non-basic variable in row that can
// move in the direction needed to increase (or decrease) the basic variable,
// or -1 if the row proves infeasibility (Bland's rule, part two).
func (s *simplex) findPivot(row map[int]*big.Rat, increase bool) int {
	best := -1
	for x, c := range row {
		if c.Sign() == 0 {
			continue
		}
		canUse := false
		pos := c.Sign() > 0
		if !increase {
			pos = !pos
		}
		if pos {
			canUse = s.upper[x] == nil || s.beta[x].cmp(*s.upper[x]) < 0
		} else {
			canUse = s.lower[x] == nil || s.beta[x].cmp(*s.lower[x]) > 0
		}
		if canUse && (best == -1 || x < best) {
			best = x
		}
	}
	return best
}

// pivotAndUpdate moves basic variable b to value v by adjusting non-basic j,
// then swaps their roles in the tableau.
func (s *simplex) pivotAndUpdate(b, j int, v delta) {
	a := s.rows[b][j]
	theta := v.sub(s.beta[b]).scale(new(big.Rat).Inv(a))
	s.beta[b] = v
	s.beta[j] = s.beta[j].add(theta)
	for i, row := range s.rows {
		if i == b {
			continue
		}
		if c, ok := row[j]; ok {
			s.beta[i] = s.beta[i].add(theta.scale(c))
		}
	}
	s.pivot(b, j)
}

// pivot swaps basic b with non-basic j.
func (s *simplex) pivot(b, j int) {
	row := s.rows[b]
	a := row[j]
	inv := new(big.Rat).Inv(a)
	// Solve row for j: j = (b - Σ_{k≠j} c_k x_k) / a.
	newRow := make(map[int]*big.Rat, len(row))
	newRow[b] = new(big.Rat).Set(inv)
	for k, c := range row {
		if k == j {
			continue
		}
		newRow[k] = new(big.Rat).Neg(new(big.Rat).Mul(c, inv))
	}
	delete(s.rows, b)
	s.rows[j] = newRow
	s.isBasic[b] = false
	s.isBasic[j] = true
	// Substitute j out of every other row.
	for i, r := range s.rows {
		if i == j {
			continue
		}
		c, ok := r[j]
		if !ok {
			continue
		}
		delete(r, j)
		for k, ck := range newRow {
			add := new(big.Rat).Mul(c, ck)
			if cur, ok := r[k]; ok {
				cur.Add(cur, add)
				if cur.Sign() == 0 {
					delete(r, k)
				}
			} else if add.Sign() != 0 {
				r[k] = add
			}
		}
	}
}

// value returns the current assignment of x (valid after a successful
// check).
func (s *simplex) value(x int) delta { return s.beta[x] }

// probeZero reports whether Σ row + konst = 0 is entailed by the asserted
// constraints, established by checking that both a strictly negative and a
// strictly positive value are infeasible. It requires a prior successful
// check and restores all observable state (bounds, assignment, conflict
// explanation) before returning — the probe runs in place instead of on a
// deep clone, saving two tableau copies per probe. The tableau basis may
// end up pivoted differently, which is unobservable: feasibility and
// variable values are basis-independent, and the probe slack is pivoted
// back out before return.
func (s *simplex) probeZero(row map[int]*big.Rat, konst *big.Rat) bool {
	savedWhy := s.conflictWhy
	d := s.defineSlack(row)
	s.beta[d] = s.rowValue(s.rows[d])
	// Bounds are replaced, never mutated in place, and delta arithmetic is
	// functional, so shallow snapshots restore the pre-probe state exactly.
	savedLower := append([]*delta(nil), s.lower...)
	savedUpper := append([]*delta(nil), s.upper...)
	savedLowerWhy := append([]int(nil), s.lowerWhy...)
	savedUpperWhy := append([]int(nil), s.upperWhy...)
	savedBeta := append([]delta(nil), s.beta...)
	bound := new(big.Rat).Neg(konst) // Σ row ⋈ -konst
	entailed := true
	for _, dir := range []int64{-1, 1} {
		// The slack must be basic when its probe bound is asserted: check()
		// only repairs out-of-bounds basic variables, so a bound on a
		// non-basic d (pivoted out by the previous direction) would be
		// silently ignored.
		if !s.isBasic[d] {
			s.pivotIn(d)
		}
		ok := true
		if dir < 0 {
			ok = s.assertUpper(d, dStrict(bound, -1), -1) // Σ row + konst < 0
		} else {
			ok = s.assertLower(d, dStrict(bound, 1), -1) // Σ row + konst > 0
		}
		if ok && s.check() {
			entailed = false
		}
		copy(s.lower, savedLower)
		copy(s.upper, savedUpper)
		copy(s.lowerWhy, savedLowerWhy)
		copy(s.upperWhy, savedUpperWhy)
		copy(s.beta, savedBeta)
		if !entailed {
			break
		}
	}
	s.popVar(d)
	s.conflictWhy = savedWhy
	return entailed
}

// pivotIn makes d basic again by pivoting it into the smallest-index row
// that mentions it. The tableau always has one: d is determined by the
// system it was defined into, and pivoting preserves the solution set.
func (s *simplex) pivotIn(d int) {
	best := -1
	for b, row := range s.rows {
		if c, ok := row[d]; ok && c.Sign() != 0 && (best == -1 || b < best) {
			best = b
		}
	}
	if best == -1 {
		panic("simplex: pivotIn on a variable absent from the tableau")
	}
	s.pivot(best, d)
}

// popVar removes the most recently allocated variable d from the tableau.
// If d became non-basic through pivoting, it is first pivoted back into the
// basis (substituting it out of every other row), then its defining row is
// dropped — a projection that leaves an equivalent system over the
// remaining variables.
func (s *simplex) popVar(d int) {
	if d != s.n-1 {
		panic("simplex: popVar on non-top variable")
	}
	if !s.isBasic[d] {
		s.pivotIn(d)
	}
	delete(s.rows, d)
	s.n--
	s.lower = s.lower[:s.n]
	s.upper = s.upper[:s.n]
	s.lowerWhy = s.lowerWhy[:s.n]
	s.upperWhy = s.upperWhy[:s.n]
	s.isBasic = s.isBasic[:s.n]
	s.beta = s.beta[:s.n]
}
