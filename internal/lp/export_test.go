package lp

// DenseSolver exposes the dense tableau oracle (dense_oracle_test.go) to the
// external lp_test package, whose equivalence suites import packages built
// on top of lp.
type DenseSolver = denseSolver

// NewDenseSolver returns a fresh dense oracle.
func NewDenseSolver() *DenseSolver { return &denseSolver{} }
