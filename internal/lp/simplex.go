// Package lp implements a small linear-programming toolkit: a modeling layer
// (variables, linear constraints, min/max objectives) and a sparse
// bounded-variable revised simplex solver whose solves start cold, plus
// dual-simplex bound re-solves from a saved basis for branch-and-bound (see
// Solver and Basis). A dense two-phase tableau simplex
// lives in the package's test files as the equivalence oracle.
//
// The paper's pipeline needs LP in three places: computing the optimal MLU
// that the performance ratio (Eq. 2) compares against, the total-flow and
// concurrent-flow objectives of §4, and as the relaxation engine inside the
// branch-and-bound MILP used by the MetaOpt-style white-box baseline.
package lp

import (
	"errors"
	"fmt"
)

// Status describes the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal bounded solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means no point satisfies all constraints.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded in the optimize
	// direction.
	StatusUnbounded
	// StatusIterLimit means the iteration cap was hit before convergence.
	StatusIterLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

const (
	eps = 1e-9

	// stallEps is the ratio-test step θ below which a pivot counts as
	// degenerate (the entering variable cannot move, so the objective is
	// unchanged); after max(stallWindow, 2m) consecutive degenerate pivots
	// Bland's anti-cycling rule engages. θ, not the objective delta, is the
	// right degeneracy signal: on demands spanning many orders of magnitude a
	// genuinely improving pivot can move the objective by less than any
	// absolute threshold while θ stays O(1). The window scales with the row
	// count because highly degenerate vertices support legitimate (and
	// numerically healthier) Dantzig walks of up to O(m) zero-step pivots,
	// while true cycles are short (the classic examples have period six) and
	// keep spinning until any finite window catches them.
	stallEps    = 1e-9
	stallWindow = 32
)

// ErrBadModel reports a malformed model (e.g. unknown variable).
var ErrBadModel = errors.New("lp: malformed model")
