package lp

// DenseSolver exposes the dense tableau oracle (dense_oracle_test.go) to the
// external lp_test package, whose equivalence suites import packages built
// on top of lp.
type DenseSolver = denseSolver

// NewDenseSolver returns a fresh dense oracle; keepRHS enables the RHS factor
// cache its ResolveRHS fast path reads.
func NewDenseSolver(keepRHS bool) *DenseSolver { return &denseSolver{KeepRHSFactors: keepRHS} }
