// Package ad implements reverse-mode automatic differentiation on a tape.
//
// The gray-box analyzer (§3.2) needs exactly two capabilities from every
// differentiable component: forward evaluation and vector-Jacobian products
// combined by the chain rule (Figure 4). This package provides both, for
// the DNN, the post-processor, the routing step, and the MLU objective.
//
// Values are dense row-major tensors of rank 1 or 2; scalars are length-1
// vectors. Build a computation on a Tape, call Backward on a scalar output,
// then read gradients from the leaves.
//
// Tapes are arena-backed: node structs, tensor storage and gradients are
// carved from grown-on-demand arenas that Reset rewinds without freeing.
// A tape that records same-shaped graphs between Resets therefore stops
// allocating after the first build — the property the analyzer's inner
// search loop depends on. The flip side is an ownership rule: Reset (and
// PutTape) invalidates every Value recorded on the tape, including the
// slices returned by Data() and Grad(). Copy anything you need out first.
package ad

import "fmt"

// Tape records a computation for reverse-mode differentiation. A Tape is not
// safe for concurrent use; build one per goroutine (or use GetTape/PutTape).
type Tape struct {
	nodes []*node
	na    nodeArena
	fa    arena
	ia    intArena
	ra    refArena
}

// backKind dispatches a node's backward rule. Storing a kind plus operand
// fields on the (arena-reused) node avoids the per-node closure allocation
// a `func()` field would cost on every recorded op.
type backKind uint8

const (
	bkNone backKind = iota
	bkElemBinary
	bkElemUnary
	bkConcat
	bkSlice
	bkMatMul
	bkCopy
	bkRow
	bkAddRowVector
	bkSum
	bkMax
	bkSegmentSoftmax
	bkSegmentMax
	bkCustom
)

// node is one tape entry. The operand fields (a, b, srcs, df*, ints, …) are
// a union: each backKind reads only the fields its recording op set.
type node struct {
	t        *Tape
	data     []float64
	grad     []float64
	rows     int
	cols     int
	requires bool // participates in gradient computation

	bk       backKind
	a, b     *node                              // unary/binary parents
	srcs     []*node                            // n-ary parents (Concat, Custom)
	dfa, dfb func(x, y float64) float64         // elementwise-binary partials
	du       func(x, y, p1, p2 float64) float64 // elementwise-unary partial
	p1, p2   float64                            // unary parameters (alpha, bounds, …)
	flag     bool                               // elementwise-binary: broadcast b
	i1       int                                // Slice from / Row index / Max arg
	ints     []int                              // offsets, indices or argmaxes
	ints2    []int                              // segment lengths
	customB  func(in [][]float64, out, gout []float64, gin [][]float64)
	customIn [][]float64
	customG  [][]float64
}

// Value is a handle to a tensor on a tape.
type Value struct {
	t *Tape
	n *node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset drops all recorded nodes so the tape can be reused. The arenas
// backing node storage are rewound, not freed: every Value previously
// recorded on the tape — and every slice obtained from Data() or Grad() —
// is invalidated and will be overwritten by subsequent recording.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.na.reset()
	t.fa.reset()
	t.ia.reset()
	t.ra.reset()
}

func (t *Tape) newNode(rows, cols int, requires bool) *node {
	n := t.na.get()
	*n = node{
		t:        t,
		data:     t.fa.alloc(rows * cols),
		rows:     rows,
		cols:     cols,
		requires: requires,
	}
	t.nodes = append(t.nodes, n)
	return n
}

// Var records a differentiable leaf vector (copies data).
func (t *Tape) Var(data []float64) Value {
	n := t.newNode(len(data), 1, true)
	copy(n.data, data)
	return Value{t, n}
}

// VarMat records a differentiable leaf matrix with the given shape, reading
// rows*cols values from data (copies).
func (t *Tape) VarMat(data []float64, rows, cols int) Value {
	if len(data) != rows*cols {
		panic("ad: VarMat shape mismatch")
	}
	n := t.newNode(rows, cols, true)
	copy(n.data, data)
	return Value{t, n}
}

// Const records a non-differentiable leaf vector (copies data).
func (t *Tape) Const(data []float64) Value {
	n := t.newNode(len(data), 1, false)
	copy(n.data, data)
	return Value{t, n}
}

// ConstMat records a non-differentiable leaf matrix.
func (t *Tape) ConstMat(data []float64, rows, cols int) Value {
	if len(data) != rows*cols {
		panic("ad: ConstMat shape mismatch")
	}
	n := t.newNode(rows, cols, false)
	copy(n.data, data)
	return Value{t, n}
}

// ConstView records a non-differentiable leaf matrix that aliases data
// instead of copying it into the arena — the way inference binds weights.
// The view's capacity is clipped to rows*cols. No op writes a leaf's data,
// and a non-differentiable leaf never gets a gradient, so the tape only
// reads data; the caller must not change it while the tape is live (until
// Reset or PutTape).
func (t *Tape) ConstView(data []float64, rows, cols int) Value {
	size := rows * cols
	if len(data) != size {
		panic("ad: ConstView shape mismatch")
	}
	n := t.na.get()
	*n = node{t: t, data: data[:size:size], rows: rows, cols: cols}
	t.nodes = append(t.nodes, n)
	return Value{t, n}
}

// Data returns the forward value (shared storage — treat as read-only, and
// invalid after Tape.Reset).
func (v Value) Data() []float64 { return v.n.data }

// Grad returns the accumulated gradient after Backward, or nil if the value
// does not participate in differentiation. Shared storage; treat as
// read-only, and invalid after Tape.Reset.
func (v Value) Grad() []float64 { return v.n.grad }

// Rows returns the number of rows (vector length for rank-1 values).
func (v Value) Rows() int { return v.n.rows }

// Cols returns the number of columns (1 for vectors).
func (v Value) Cols() int { return v.n.cols }

// Len returns the total number of elements.
func (v Value) Len() int { return len(v.n.data) }

// ScalarValue returns the single element of a scalar value.
func (v Value) ScalarValue() float64 {
	if len(v.n.data) != 1 {
		panic("ad: ScalarValue of non-scalar")
	}
	return v.n.data[0]
}

// IsScalar reports whether the value has exactly one element.
func (v Value) IsScalar() bool { return len(v.n.data) == 1 }

func (v Value) sameTape(w Value) {
	if v.t != w.t {
		panic("ad: values from different tapes")
	}
}

// ensureGrad allocates the gradient buffer lazily (from the tape arena).
func (n *node) ensureGrad() {
	if n.grad == nil {
		n.grad = n.t.fa.alloc(len(n.data))
	}
}

// Backward runs reverse-mode accumulation from the given scalar output,
// seeding its adjoint with 1. It may be called once per tape build; call
// Tape.Reset to start over.
func Backward(out Value) {
	if !out.IsScalar() {
		panic("ad: Backward requires a scalar output")
	}
	BackwardWithSeed(out, 1)
}

// BackwardWithSeed runs reverse accumulation seeding the output adjoint with
// the given value (vector outputs get the seed broadcast is not supported;
// use BackwardVJP for vector-Jacobian products).
func BackwardWithSeed(out Value, seed float64) {
	out.t.clearIntermediateGrads()
	out.n.ensureGrad()
	for i := range out.n.grad {
		out.n.grad[i] += seed
	}
	runBackward(out.t)
}

// BackwardVJP seeds the output's adjoint with the cotangent vector ybar and
// runs reverse accumulation — computing ybarᵀ · J for every leaf. This is
// the primitive the gray-box chain rule (Figure 4) composes.
func BackwardVJP(out Value, ybar []float64) {
	if len(ybar) != out.Len() {
		panic(fmt.Sprintf("ad: BackwardVJP cotangent length %d, want %d", len(ybar), out.Len()))
	}
	out.t.clearIntermediateGrads()
	out.n.ensureGrad()
	for i := range ybar {
		out.n.grad[i] += ybar[i]
	}
	runBackward(out.t)
}

func runBackward(t *Tape) {
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.bk != bkNone && n.grad != nil {
			n.backprop()
		}
	}
}

// backprop propagates n's adjoint into its parents according to its kind.
func (n *node) backprop() {
	switch n.bk {
	case bkElemBinary:
		backElemBinary(n)
	case bkElemUnary:
		backElemUnary(n)
	case bkConcat:
		backConcat(n)
	case bkSlice:
		backSlice(n)
	case bkMatMul:
		backMatMul(n)
	case bkCopy:
		backCopy(n)
	case bkRow:
		backRow(n)
	case bkAddRowVector:
		backAddRowVector(n)
	case bkSum:
		backSum(n)
	case bkMax:
		backMax(n)
	case bkSegmentSoftmax:
		backSegmentSoftmax(n)
	case bkSegmentMax:
		backSegmentMax(n)
	case bkCustom:
		backCustom(n)
	default:
		panic("ad: unknown backward kind")
	}
}

// clearIntermediateGrads zeroes the adjoints of all non-leaf nodes so a
// fresh backward pass does not double-count earlier passes. Leaf gradients
// accumulate across passes, matching the usual framework semantics.
func (t *Tape) clearIntermediateGrads() {
	for _, n := range t.nodes {
		if n.bk != bkNone && n.grad != nil {
			for i := range n.grad {
				n.grad[i] = 0
			}
		}
	}
}

// result creates an op output node; requires is true if any input requires
// gradients.
func (t *Tape) result(rows, cols int, requires bool) Value {
	return Value{t, t.newNode(rows, cols, requires)}
}
