package ad

import (
	"fmt"
	"math"
)

// checkSameShape panics unless a and b have identical shapes.
func checkSameShape(a, b Value) {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		panic(fmt.Sprintf("ad: shape mismatch %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
}

// elementwiseBinary implements c = f(a, b) with per-element partials.
// If b is scalar it broadcasts. dfa and dfb must be top-level functions
// (they are stored on the node; a capturing closure would allocate).
func elementwiseBinary(a, b Value, f, dfa, dfb func(x, y float64) float64) Value {
	a.sameTape(b)
	t := a.t
	broadcastB := b.IsScalar() && !a.IsScalar()
	if !broadcastB {
		checkSameShape(a, b)
	}
	out := t.result(a.Rows(), a.Cols(), a.n.requires || b.n.requires)
	if broadcastB {
		bv := b.n.data[0]
		for i := range out.n.data {
			out.n.data[i] = f(a.n.data[i], bv)
		}
	} else {
		for i := range out.n.data {
			out.n.data[i] = f(a.n.data[i], b.n.data[i])
		}
	}
	if out.n.requires {
		on := out.n
		on.bk = bkElemBinary
		on.a, on.b = a.n, b.n
		on.dfa, on.dfb = dfa, dfb
		on.flag = broadcastB
	}
	return out
}

func backElemBinary(n *node) {
	an, bn := n.a, n.b
	if an.requires {
		an.ensureGrad()
		if n.flag {
			bv := bn.data[0]
			for i := range n.grad {
				an.grad[i] += n.grad[i] * n.dfa(an.data[i], bv)
			}
		} else {
			for i := range n.grad {
				an.grad[i] += n.grad[i] * n.dfa(an.data[i], bn.data[i])
			}
		}
	}
	if bn.requires {
		bn.ensureGrad()
		if n.flag {
			s := 0.0
			for i := range n.grad {
				s += n.grad[i] * n.dfb(an.data[i], bn.data[0])
			}
			bn.grad[0] += s
		} else {
			for i := range n.grad {
				bn.grad[i] += n.grad[i] * n.dfb(an.data[i], bn.data[i])
			}
		}
	}
}

// elementwiseUnary implements y = f(x) with derivative du(x, y, p1, p2),
// where p1 and p2 are op parameters (slope, bounds, …) stored on the node so
// that du can be a top-level, non-capturing function.
func elementwiseUnary(x Value, f func(float64) float64, du func(x, y, p1, p2 float64) float64, p1, p2 float64) Value {
	t := x.t
	out := t.result(x.Rows(), x.Cols(), x.n.requires)
	for i, v := range x.n.data {
		out.n.data[i] = f(v)
	}
	if out.n.requires {
		on := out.n
		on.bk = bkElemUnary
		on.a = x.n
		on.du = du
		on.p1, on.p2 = p1, p2
	}
	return out
}

func backElemUnary(n *node) {
	xn := n.a
	xn.ensureGrad()
	du, p1, p2 := n.du, n.p1, n.p2
	for i := range n.grad {
		xn.grad[i] += n.grad[i] * du(xn.data[i], n.data[i], p1, p2)
	}
}

// Static partials for the binary ops.
func dOne(x, y float64) float64    { return 1 }
func dNegOne(x, y float64) float64 { return -1 }

func fAdd(x, y float64) float64 { return x + y }
func fSub(x, y float64) float64 { return x - y }

// Add returns a + b (b may be scalar-broadcast).
func Add(a, b Value) Value { return elementwiseBinary(a, b, fAdd, dOne, dOne) }

// Sub returns a - b (b may be scalar-broadcast).
func Sub(a, b Value) Value { return elementwiseBinary(a, b, fSub, dOne, dNegOne) }

// Static partials for the unary ops; p1/p2 carry the op parameters.
func duConst(x, y, p1, p2 float64) float64 { return p1 }
func duOne(x, y, p1, p2 float64) float64   { return 1 }
func duReLU(x, y, p1, p2 float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}
func duLeakyReLU(x, y, p1, p2 float64) float64 {
	if x > 0 {
		return 1
	}
	return p1
}
func duELU(x, y, p1, p2 float64) float64 {
	if x > 0 {
		return 1
	}
	return y + p1 // alpha*e^x = y + alpha
}
func duSigmoid(x, y, p1, p2 float64) float64  { return y * (1 - y) }
func duTanh(x, y, p1, p2 float64) float64     { return 1 - y*y }
func duLog(x, y, p1, p2 float64) float64      { return 1 / x }
func duSquare(x, y, p1, p2 float64) float64   { return 2 * x }
func duSoftplus(x, y, p1, p2 float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Scale returns alpha * x for a constant alpha.
func Scale(x Value, alpha float64) Value {
	return elementwiseUnary(x,
		func(v float64) float64 { return alpha * v },
		duConst, alpha, 0)
}

// AddConst returns x + c elementwise for a constant c.
func AddConst(x Value, c float64) Value {
	return elementwiseUnary(x,
		func(v float64) float64 { return v + c },
		duOne, 0, 0)
}

// Neg returns -x.
func Neg(x Value) Value { return Scale(x, -1) }

// ReLU returns max(x, 0) elementwise. The subgradient at 0 is 0.
func ReLU(x Value) Value {
	return elementwiseUnary(x,
		func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		},
		duReLU, 0, 0)
}

// LeakyReLU returns x for x > 0 and slope*x otherwise.
func LeakyReLU(x Value, slope float64) Value {
	return elementwiseUnary(x,
		func(v float64) float64 {
			if v > 0 {
				return v
			}
			return slope * v
		},
		duLeakyReLU, slope, 0)
}

// ELU returns x for x > 0 and alpha*(e^x - 1) otherwise — the smooth
// activation DOTE-style DNNs use and white-box tools cannot encode exactly.
func ELU(x Value, alpha float64) Value {
	return elementwiseUnary(x,
		func(v float64) float64 {
			if v > 0 {
				return v
			}
			return alpha * (math.Exp(v) - 1)
		},
		duELU, alpha, 0)
}

// Sigmoid returns 1 / (1 + e^-x) elementwise.
func Sigmoid(x Value) Value {
	return elementwiseUnary(x,
		func(v float64) float64 { return 1 / (1 + math.Exp(-v)) },
		duSigmoid, 0, 0)
}

// Tanh returns tanh(x) elementwise.
func Tanh(x Value) Value {
	return elementwiseUnary(x, math.Tanh, duTanh, 0, 0)
}

// Log returns ln(x) elementwise.
func Log(x Value) Value {
	return elementwiseUnary(x, math.Log, duLog, 0, 0)
}

// Square returns x*x elementwise.
func Square(x Value) Value {
	return elementwiseUnary(x,
		func(v float64) float64 { return v * v },
		duSquare, 0, 0)
}

// Softplus returns log(1 + e^x), a smooth approximation of ReLU used when
// approximating non-differentiable components (§6).
func Softplus(x Value) Value {
	return elementwiseUnary(x,
		func(v float64) float64 {
			if v > 30 {
				return v
			}
			return math.Log1p(math.Exp(v))
		},
		duSoftplus, 0, 0)
}

// Concat concatenates rank-1 values into one vector.
func Concat(vs ...Value) Value {
	if len(vs) == 0 {
		panic("ad: Concat of nothing")
	}
	t := vs[0].t
	total := 0
	requires := false
	for _, v := range vs {
		vs[0].sameTape(v)
		if v.Cols() != 1 {
			panic("ad: Concat requires vectors")
		}
		total += v.Len()
		requires = requires || v.n.requires
	}
	out := t.result(total, 1, requires)
	pos := 0
	for _, v := range vs {
		copy(out.n.data[pos:], v.n.data)
		pos += v.Len()
	}
	if requires {
		on := out.n
		on.bk = bkConcat
		ins := t.ra.allocNodes(len(vs))
		for i, v := range vs {
			ins[i] = v.n
		}
		on.srcs = ins
	}
	return out
}

func backConcat(n *node) {
	pos := 0
	for _, in := range n.srcs {
		if in.requires {
			in.ensureGrad()
			for i := range in.data {
				in.grad[i] += n.grad[pos+i]
			}
		}
		pos += len(in.data)
	}
}

// Slice returns the sub-vector x[from:to] of a rank-1 value.
func Slice(x Value, from, to int) Value {
	if x.Cols() != 1 {
		panic("ad: Slice requires a vector")
	}
	if from < 0 || to > x.Len() || from > to {
		panic("ad: Slice bounds out of range")
	}
	t := x.t
	out := t.result(to-from, 1, x.n.requires)
	copy(out.n.data, x.n.data[from:to])
	if out.n.requires {
		on := out.n
		on.bk = bkSlice
		on.a = x.n
		on.i1 = from
	}
	return out
}

func backSlice(n *node) {
	xn := n.a
	xn.ensureGrad()
	from := n.i1
	for i := range n.grad {
		xn.grad[from+i] += n.grad[i]
	}
}
