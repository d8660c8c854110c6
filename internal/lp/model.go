package lp

import (
	"fmt"
	"time"
)

// Sense selects the optimization direction.
type Sense int

const (
	// Minimize the objective.
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// Rel is a constraint relation.
type Rel int

const (
	// LE is "<=".
	LE Rel = iota
	// GE is ">=".
	GE
	// EQ is "=".
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// VarID identifies a model variable.
type VarID int

// Term is a linear coefficient on a variable.
type Term struct {
	Var   VarID
	Coeff float64
}

// Expr is a linear expression: sum of terms plus a constant.
type Expr struct {
	Terms []Term
	Const float64
}

// NewExpr builds an expression from alternating coefficient, variable pairs.
func NewExpr() *Expr { return &Expr{} }

// Add appends coeff*v to the expression and returns it for chaining.
func (e *Expr) Add(coeff float64, v VarID) *Expr {
	e.Terms = append(e.Terms, Term{Var: v, Coeff: coeff})
	return e
}

// AddConst adds a constant to the expression.
func (e *Expr) AddConst(c float64) *Expr {
	e.Const += c
	return e
}

// Reset empties the expression, keeping its term capacity, so callers can
// reuse one scratch Expr while building many constraints.
func (e *Expr) Reset() *Expr {
	e.Terms = e.Terms[:0]
	e.Const = 0
	return e
}

type variable struct {
	name   string
	lo, hi float64
}

type constraint struct {
	name string
	expr Expr
	rel  Rel
	rhs  float64
}

// Problem is a linear program under construction.
//
// AddConstraint and SetObjective copy the terms they are given into an
// internal arena, so the caller may freely reuse (Reset) one scratch Expr
// across calls. Problem itself is reusable: Reset empties the model while
// retaining all grown capacity, which makes rebuild-and-resolve loops (the
// per-traffic-matrix optimal-MLU LPs) allocation-free in steady state.
type Problem struct {
	vars     []variable
	cons     []constraint
	objSense Sense
	objExpr  Expr
	MaxIter  int // simplex iteration cap; 0 means automatic
	// Deadline, when non-zero, aborts the simplex with StatusIterLimit
	// once passed. Branch-and-bound uses it to keep huge node relaxations
	// from blowing the overall budget.
	Deadline time.Time

	termArena []Term // backing store for interned constraint terms
	objTerms  []Term // backing store for the objective's terms
}

// NewProblem returns an empty LP.
func NewProblem() *Problem {
	return &Problem{objSense: Minimize}
}

// Reset empties the model (variables, constraints, objective) while keeping
// every grown buffer, so the Problem can be rebuilt without allocating.
// MaxIter and Deadline are preserved.
func (p *Problem) Reset() {
	p.vars = p.vars[:0]
	p.cons = p.cons[:0]
	p.objSense = Minimize
	p.objExpr = Expr{}
	p.termArena = p.termArena[:0]
	p.objTerms = p.objTerms[:0]
}

// NumVars returns the variable count.
func (p *Problem) NumVars() int { return len(p.vars) }

// AddVariable adds a variable with bounds [lo, hi]. Use math.Inf for
// unbounded sides.
func (p *Problem) AddVariable(name string, lo, hi float64) VarID {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %s has lo > hi", name))
	}
	p.vars = append(p.vars, variable{name: name, lo: lo, hi: hi})
	return VarID(len(p.vars) - 1)
}

// VarBounds returns the bounds of a variable.
func (p *Problem) VarBounds(v VarID) (lo, hi float64) {
	return p.vars[v].lo, p.vars[v].hi
}

// SetVarBounds tightens (or replaces) the bounds of a variable — the hook
// branch-and-bound uses to branch.
func (p *Problem) SetVarBounds(v VarID, lo, hi float64) {
	if lo > hi {
		panic("lp: SetVarBounds with lo > hi")
	}
	p.vars[v].lo = lo
	p.vars[v].hi = hi
}

// Clone returns a deep copy of the model that can be modified (e.g. bounds
// tightened) without affecting the original.
func (p *Problem) Clone() *Problem {
	c := &Problem{
		vars:     append([]variable{}, p.vars...),
		cons:     make([]constraint, len(p.cons)),
		objSense: p.objSense,
		MaxIter:  p.MaxIter,
		Deadline: p.Deadline,
	}
	for i, con := range p.cons {
		c.cons[i] = constraint{
			name: con.name,
			expr: Expr{Terms: append([]Term{}, con.expr.Terms...), Const: con.expr.Const},
			rel:  con.rel,
			rhs:  con.rhs,
		}
	}
	c.objExpr = Expr{Terms: append([]Term{}, p.objExpr.Terms...), Const: p.objExpr.Const}
	return c
}

// internTerms copies ts into the problem's term arena and returns the
// interned view. Growing the arena may reallocate its backing array; slices
// handed out earlier keep pointing at the old (still valid) memory, so
// interned views are stable until the next Reset.
func (p *Problem) internTerms(ts []Term) []Term {
	start := len(p.termArena)
	p.termArena = append(p.termArena, ts...)
	return p.termArena[start:len(p.termArena):len(p.termArena)]
}

// AddConstraint adds expr rel rhs and returns the constraint's index (its
// insertion order). The expression's terms are
// copied; the caller keeps ownership of expr.
func (p *Problem) AddConstraint(name string, expr *Expr, rel Rel, rhs float64) int {
	p.cons = append(p.cons, constraint{
		name: name,
		expr: Expr{Terms: p.internTerms(expr.Terms)},
		rel:  rel,
		rhs:  rhs - expr.Const,
	})
	return len(p.cons) - 1
}

// SetObjective sets the optimization sense and objective expression (terms
// are copied; the caller keeps ownership of expr).
func (p *Problem) SetObjective(sense Sense, expr *Expr) {
	p.objSense = sense
	p.objTerms = append(p.objTerms[:0], expr.Terms...)
	p.objExpr = Expr{Terms: p.objTerms, Const: expr.Const}
}

// Solution holds a solve outcome.
type Solution struct {
	Status    Status
	Objective float64
	// X holds a value per model variable (valid when Status == StatusOptimal).
	X []float64
}

// Value returns the solution value of v.
func (s *Solution) Value(v VarID) float64 { return s.X[v] }

// Solve runs a cold simplex solve of p on a pooled package-level Solver.
// The pool only saves workspace allocations: the answer is the same as a
// fresh NewSolver's.
func (p *Problem) Solve() *Solution {
	s := getPooledSolver()
	sol := s.Solve(p)
	putPooledSolver(s)
	return sol
}
