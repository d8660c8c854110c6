package ad

import (
	"fmt"

	"repro/internal/linalg"
)

// MatMul returns A·B for matrices A [m,k] and B [k,p].
func MatMul(a, b Value) Value {
	a.sameTape(b)
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("ad: MatMul shapes %dx%d · %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	t := a.t
	m, k, p := a.Rows(), a.Cols(), b.Cols()
	out := t.result(m, p, a.n.requires || b.n.requires)
	// Arena storage is zeroed at allocation, so accumulate directly. The
	// blocked kernel keeps each output row's accumulation order independent
	// of the batch size, so a [R,k] product agrees bitwise with R separate
	// [1,k] products — restart groups depend on this.
	linalg.MatMulBlockedAddInto(out.n.data, a.n.data, b.n.data, m, k, p)
	if out.n.requires {
		on := out.n
		on.bk = bkMatMul
		on.a, on.b = a.n, b.n
	}
	return out
}

func backMatMul(n *node) {
	an, bn := n.a, n.b
	m, k, p := an.rows, an.cols, bn.cols
	// dA = dC · Bᵀ ; dB = Aᵀ · dC.
	if an.requires {
		an.ensureGrad()
		linalg.MatMulNTBlockedAddInto(an.grad, n.grad, bn.data, m, k, p)
	}
	if bn.requires {
		bn.ensureGrad()
		linalg.MatMulTNBlockedAddInto(bn.grad, an.data, n.grad, m, k, p)
	}
}

// Reshape reinterprets x with a new shape of identical element count.
func Reshape(x Value, rows, cols int) Value {
	if rows*cols != x.Len() {
		panic("ad: Reshape element count mismatch")
	}
	t := x.t
	out := t.result(rows, cols, x.n.requires)
	copy(out.n.data, x.n.data)
	if out.n.requires {
		on := out.n
		on.bk = bkCopy
		on.a = x.n
	}
	return out
}

func backCopy(n *node) {
	xn := n.a
	xn.ensureGrad()
	linalg.AccumInto(xn.grad, n.grad)
}

// AddRowVector adds vector v [p] to every row of matrix x [m,p] — the bias
// broadcast of a dense layer applied to a batch.
func AddRowVector(x, v Value) Value {
	x.sameTape(v)
	if v.Cols() != 1 || v.Rows() != x.Cols() {
		panic("ad: AddRowVector shape mismatch")
	}
	t := x.t
	m, p := x.Rows(), x.Cols()
	out := t.result(m, p, x.n.requires || v.n.requires)
	for i := 0; i < m; i++ {
		linalg.AddInto(out.n.data[i*p:(i+1)*p], x.n.data[i*p:(i+1)*p], v.n.data)
	}
	if out.n.requires {
		on := out.n
		on.bk = bkAddRowVector
		on.a, on.b = x.n, v.n
	}
	return out
}

func backAddRowVector(n *node) {
	xn, vn := n.a, n.b
	m, p := n.rows, n.cols
	if xn.requires {
		xn.ensureGrad()
		linalg.AccumInto(xn.grad, n.grad)
	}
	if vn.requires {
		vn.ensureGrad()
		for i := 0; i < m; i++ {
			linalg.AccumInto(vn.grad, n.grad[i*p:(i+1)*p])
		}
	}
}

// Row extracts row i of a matrix as a vector.
func Row(x Value, i int) Value {
	if i < 0 || i >= x.Rows() {
		panic("ad: Row out of range")
	}
	t := x.t
	p := x.Cols()
	out := t.result(p, 1, x.n.requires)
	copy(out.n.data, x.n.data[i*p:(i+1)*p])
	if out.n.requires {
		on := out.n
		on.bk = bkRow
		on.a = x.n
		on.i1 = i
	}
	return out
}

func backRow(n *node) {
	xn := n.a
	xn.ensureGrad()
	p := n.rows // the row was extracted as a [p,1] vector
	linalg.AccumInto(xn.grad[n.i1*p:(n.i1+1)*p], n.grad)
}
