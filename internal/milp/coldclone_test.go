package milp

import (
	"context"
	"math"
	"time"

	"repro/internal/lp"
)

// This file is the test oracle for the branch-and-bound engine in bb.go: the
// original engine, verbatim in its search semantics — depth-first with
// most-fractional branching, a full p.LP.Clone() and cold LP solve per
// node, and map-backed bound overrides per child. The equivalence suite
// pins bb.go against it, and BenchmarkPackingNodesColdClone measures the
// warm engine's node throughput against it.

type coldNode struct {
	// bound overrides: variable -> (lo, hi)
	bounds map[lp.VarID][2]float64
	// parent relaxation objective, used for best-relaxation-first ordering
	relaxObj float64
}

// solveColdClone is SolveCtx on the oracle engine, with the same defaults.
func (p *Problem) solveColdClone(ctx context.Context, opts Options) *Solution {
	start := time.Now()
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 100000
	}
	if opts.IntTol == 0 {
		opts.IntTol = 1e-6
	}
	better := p.better
	worstObj := p.worstObjective()

	sol := &Solution{Status: NoIncumbent, Objective: worstObj, BestBound: -worstObj}
	// Stack-based DFS with best-relaxation-first tie ordering via simple
	// append/pop (children pushed so the better bound pops first).
	stack := []coldNode{{bounds: map[lp.VarID][2]float64{}, relaxObj: -worstObj}}
	incumbent := worstObj
	var incumbentX []float64
	// budgetBreak records that the loop exited on a node or time budget
	// rather than by draining the stack — the two must not be conflated: a
	// tree that empties on exactly the MaxNodes-th node IS exhausted.
	budgetBreak := false
	// openBound accumulates the best (in the objective direction)
	// parent-relaxation bound over every subtree the search left unresolved:
	// nodes pruned with unconverged or unbounded relaxations, and nodes still
	// on the stack at a budget break. Any optimum hiding in those subtrees is
	// no better than openBound.
	openBound := worstObj
	haveOpen := false
	trackOpen := func(b float64) {
		if !haveOpen || better(b, openBound) {
			openBound, haveOpen = b, true
		}
	}
	// unresolved counts subtrees pruned without a conclusive relaxation
	// (iteration/deadline-limited or unbounded): while nonzero, a drained
	// stack proves neither optimality nor infeasibility.
	unresolved := 0

	deadline := ctxDeadline(ctx, start, opts)

	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			budgetBreak = true
			sol.StopReason = ctxStop(err)
			break
		}
		if sol.Nodes >= opts.MaxNodes {
			budgetBreak = true
			sol.StopReason = StopNodeBudget
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			budgetBreak = true
			sol.StopReason = StopDeadline
			break
		}
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sol.Nodes++

		// Prune by bound before solving if the parent relaxation is already
		// no better than the incumbent.
		if incumbentX != nil && !better(node.relaxObj, incumbent) {
			continue
		}
		relax := p.LP.Clone()
		relax.Deadline = deadline
		for v, b := range node.bounds {
			relax.SetVarBounds(v, b[0], b[1])
		}
		// A fresh solver per node: a pooled one would warm-start from
		// whatever basis it last held, so the oracle's node count would
		// depend on unrelated earlier solves.
		s := lp.NewSolver().Solve(relax)
		switch s.Status {
		case lp.StatusInfeasible:
			continue
		case lp.StatusUnbounded:
			// An unbounded relaxation cannot prove anything about its
			// subtree; prune it but remember that the tree was not fully
			// resolved, bounded only by the parent relaxation.
			unresolved++
			trackOpen(node.relaxObj)
			continue
		case lp.StatusIterLimit:
			// The relaxation did not converge: its subtree may hide the true
			// optimum, so the terminal status must not claim Optimal (or
			// Infeasible) once the stack drains. The parent relaxation still
			// bounds whatever the subtree holds.
			sol.IterLimited++
			unresolved++
			trackOpen(node.relaxObj)
			continue
		}
		if incumbentX != nil && !better(s.Objective, incumbent) {
			continue // bound prune
		}
		// Find the most fractional integer variable.
		branchVar := lp.VarID(-1)
		worstFrac := opts.IntTol
		for _, v := range p.intVars {
			val := s.Value(v)
			frac := math.Abs(val - math.Round(val))
			if frac > worstFrac {
				worstFrac = frac
				branchVar = v
			}
		}
		if branchVar < 0 {
			// Integer feasible: new incumbent.
			if incumbentX == nil || better(s.Objective, incumbent) {
				incumbent = s.Objective
				incumbentX = append([]float64{}, s.X...)
			}
			continue
		}
		val := s.Value(branchVar)
		lo, hi := p.LP.VarBounds(branchVar)
		if b, ok := node.bounds[branchVar]; ok {
			lo, hi = b[0], b[1]
		}
		down := cloneBounds(node.bounds)
		down[branchVar] = [2]float64{lo, math.Floor(val)}
		up := cloneBounds(node.bounds)
		up[branchVar] = [2]float64{math.Ceil(val), hi}
		// Push both children; explore the "down" branch first by pushing it
		// last (LIFO).
		stack = append(stack, coldNode{bounds: up, relaxObj: s.Objective})
		stack = append(stack, coldNode{bounds: down, relaxObj: s.Objective})
	}

	sol.Elapsed = time.Since(start)
	// Exhaustion is "the stack drained without a budget break" — checking
	// Nodes < MaxNodes instead would misclassify a tree that empties on
	// exactly the MaxNodes-th node. A break always precedes the pop, so the
	// unexplored frontier is exactly what remains on the stack.
	exhausted := len(stack) == 0 && !budgetBreak
	proven := exhausted && unresolved == 0
	switch {
	case incumbentX != nil && proven:
		sol.Status = Optimal
	case incumbentX != nil:
		sol.Status = Feasible
	case proven:
		// Tree exhausted with every relaxation conclusive and no integral
		// point: the MILP is infeasible.
		sol.Status = Infeasible
	default:
		sol.Status = NoIncumbent
	}
	if !budgetBreak {
		sol.StopReason = ""
	}
	if incumbentX != nil {
		sol.Objective = incumbent
		sol.X = incumbentX
	}
	// BestBound: fold the open frontier into the incumbent. Subtrees pruned
	// by bound are dominated by the incumbent and need no tracking.
	for _, nd := range stack {
		trackOpen(nd.relaxObj)
	}
	switch {
	case incumbentX != nil && haveOpen && better(openBound, incumbent):
		sol.BestBound = openBound
	case incumbentX != nil:
		sol.BestBound = incumbent
	case haveOpen:
		sol.BestBound = openBound
	default:
		// Proven infeasible: the optimum over an empty feasible set is the
		// worst objective value.
		sol.BestBound = worstObj
	}
	return sol
}

func cloneBounds(b map[lp.VarID][2]float64) map[lp.VarID][2]float64 {
	c := make(map[lp.VarID][2]float64, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}
