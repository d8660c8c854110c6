// Package milp implements mixed-integer linear programming by
// branch-and-bound over the lp simplex. It is the engine behind the
// MetaOpt-style white-box baseline (internal/whitebox): white-box analyzers
// encode the entire learning-enabled pipeline — DNN included — as one joint
// optimization, which is exactly the approach whose scalability §3.1 shows
// breaking down. It also backs the alloc case study's packing oracle, which
// put it on the analyzer's hot path and motivated the warm-started engine
// in bb.go.
package milp

import (
	"context"
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
)

// Status describes a MILP solve outcome.
type Status int

const (
	// Optimal means the tree was exhausted and the incumbent is optimal.
	Optimal Status = iota
	// Feasible means an incumbent exists but the budget ran out before
	// optimality was proven.
	Feasible
	// NoIncumbent means the budget ran out with no integer-feasible point
	// found — the white-box failure mode of Tables 1 and 2.
	NoIncumbent
	// Infeasible means the problem has no feasible point at all.
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case NoIncumbent:
		return "no-incumbent"
	case Infeasible:
		return "infeasible"
	default:
		return "unknown"
	}
}

// StopReason spellings for Solution.StopReason, matching the core search
// layer's conventions ("deadline"/"cancelled") plus the MILP-specific node
// budget. Empty means the tree was exhausted.
const (
	StopNodeBudget = "node-budget"
	StopDeadline   = "deadline"
	StopCancelled  = "cancelled"
)

// Problem is a MILP: an LP plus integrality requirements.
type Problem struct {
	LP       *lp.Problem
	intVars  []lp.VarID
	sense    lp.Sense
	haveObj  bool
	objExpr  *lp.Expr
	intIndex map[lp.VarID]bool
}

// NewProblem returns an empty MILP.
func NewProblem() *Problem {
	return &Problem{LP: lp.NewProblem(), intIndex: make(map[lp.VarID]bool)}
}

// AddVariable adds a continuous variable.
func (p *Problem) AddVariable(name string, lo, hi float64) lp.VarID {
	return p.LP.AddVariable(name, lo, hi)
}

// AddInteger adds an integer variable with the given bounds.
func (p *Problem) AddInteger(name string, lo, hi float64) lp.VarID {
	v := p.LP.AddVariable(name, lo, hi)
	p.intVars = append(p.intVars, v)
	p.intIndex[v] = true
	return v
}

// AddBinary adds a 0/1 variable.
func (p *Problem) AddBinary(name string) lp.VarID {
	return p.AddInteger(name, 0, 1)
}

// AddConstraint forwards to the underlying LP.
func (p *Problem) AddConstraint(name string, expr *lp.Expr, rel lp.Rel, rhs float64) {
	p.LP.AddConstraint(name, expr, rel, rhs)
}

// SetObjective sets the optimization goal.
func (p *Problem) SetObjective(sense lp.Sense, expr *lp.Expr) {
	p.sense = sense
	p.objExpr = expr
	p.haveObj = true
	p.LP.SetObjective(sense, expr)
}

// Options bound the branch-and-bound effort.
type Options struct {
	// MaxNodes caps the number of explored nodes (0 = 100000).
	MaxNodes int
	// MaxTime caps wall-clock time (0 = unlimited).
	MaxTime time.Duration
	// IntTol is the integrality tolerance (0 = 1e-6).
	IntTol float64
	// Obs, when non-nil, receives solver telemetry: counters "milp.nodes",
	// "milp.warm_hits", "milp.dual_pivots", "milp.cold_fallbacks".
	Obs *obs.Registry
}

// Solution is a MILP solve result.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Nodes is the number of branch-and-bound nodes explored; Elapsed the
	// wall time spent.
	Nodes   int
	Elapsed time.Duration
	// BestBound is the proven bound on the optimum at termination: the best
	// objective any unexplored subtree could still attain, folded with the
	// incumbent. When Status == Optimal it equals Objective exactly; when the
	// budget ran out it brackets the optimum from the other side (an upper
	// bound for maximization, lower for minimization), so callers can report
	// an optimality gap. A solve that proved infeasibility reports the worst
	// objective value (-Inf for maximization, +Inf for minimization).
	BestBound float64
	// IterLimited counts nodes whose LP relaxation hit the simplex iteration
	// cap or deadline and had to be pruned unresolved. Any nonzero count
	// means an unconverged relaxation may be hiding the true optimum, so the
	// solver never claims Optimal or Infeasible alongside it.
	IterLimited int

	// NodeResolves counts node relaxations completed warm from a retained
	// parent basis (lp BoundHits); DualPivots the dual-simplex pivots those
	// re-solves spent; ColdFallbacks the relaxations that went through a
	// full cold solve (the root, plus any warm-path bailouts).
	NodeResolves  int
	DualPivots    int
	ColdFallbacks int

	// StopReason is empty when the tree was exhausted, else one of
	// StopNodeBudget, StopDeadline, StopCancelled — why the search stopped
	// with the frontier still open.
	StopReason string
}

// Gap returns the relative optimality gap |BestBound − Objective| scaled by
// max(1, |Objective|). Zero when the solve proved optimality; NaN/Inf when
// no finite bound was established (e.g. the root was never resolved).
func (s *Solution) Gap() float64 {
	scale := math.Abs(s.Objective)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(s.BestBound-s.Objective) / scale
}

// Solve runs branch and bound without external cancellation.
func (p *Problem) Solve(opts Options) *Solution {
	return p.SolveCtx(context.Background(), opts)
}

// SolveCtx runs branch and bound honoring ctx: on cancellation or deadline
// the best-so-far Solution is returned with StopReason set, mirroring the
// core search layer's stop semantics. The engine lives in bb.go.
func (p *Problem) SolveCtx(ctx context.Context, opts Options) *Solution {
	start := time.Now()
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 100000
	}
	if opts.IntTol == 0 {
		opts.IntTol = 1e-6
	}
	sol := p.solveWarm(ctx, start, opts)
	if opts.Obs != nil {
		opts.Obs.Counter("milp.nodes").Add(int64(sol.Nodes))
		opts.Obs.Counter("milp.warm_hits").Add(int64(sol.NodeResolves))
		opts.Obs.Counter("milp.dual_pivots").Add(int64(sol.DualPivots))
		opts.Obs.Counter("milp.cold_fallbacks").Add(int64(sol.ColdFallbacks))
	}
	return sol
}

// better reports whether objective a improves on b under the problem sense.
func (p *Problem) better(a, b float64) bool {
	if p.sense == lp.Maximize {
		return a > b
	}
	return a < b
}

// worstObjective is the identity element of better: -Inf for maximization,
// +Inf for minimization.
func (p *Problem) worstObjective() float64 {
	if p.sense == lp.Minimize {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

// ctxStop maps a context error to the StopReason spelling.
func ctxStop(err error) string {
	if err == context.DeadlineExceeded {
		return StopDeadline
	}
	return StopCancelled
}

// Clone returns an independent copy of the MILP sharing no mutable state
// with the original, so concurrent Solve calls can proceed in parallel on
// their own clones.
func (p *Problem) Clone() *Problem {
	c := &Problem{
		LP:       p.LP.Clone(),
		intVars:  append([]lp.VarID(nil), p.intVars...),
		sense:    p.sense,
		haveObj:  p.haveObj,
		objExpr:  p.objExpr,
		intIndex: make(map[lp.VarID]bool, len(p.intIndex)),
	}
	for k, v := range p.intIndex {
		c.intIndex[k] = v
	}
	return c
}
