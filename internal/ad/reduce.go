package ad

import "math"

// Sum returns the scalar sum of all elements of x.
func Sum(x Value) Value {
	t := x.t
	out := t.result(1, 1, x.n.requires)
	s := 0.0
	for _, v := range x.n.data {
		s += v
	}
	out.n.data[0] = s
	if out.n.requires {
		out.n.bk = bkSum
		out.n.a = x.n
	}
	return out
}

func backSum(n *node) {
	xn := n.a
	xn.ensureGrad()
	g := n.grad[0]
	for i := range xn.grad {
		xn.grad[i] += g
	}
}

// Mean returns the scalar mean of all elements of x.
func Mean(x Value) Value {
	return Scale(Sum(x), 1/float64(x.Len()))
}

// Max returns the scalar maximum of x. The subgradient flows entirely to
// the first attaining element — the standard max subgradient, which is what
// makes the MLU objective piecewise sub-differentiable (§3.2).
func Max(x Value) Value {
	t := x.t
	out := t.result(1, 1, x.n.requires)
	best, arg := math.Inf(-1), 0
	for i, v := range x.n.data {
		if v > best {
			best, arg = v, i
		}
	}
	out.n.data[0] = best
	if out.n.requires {
		out.n.bk = bkMax
		out.n.a = x.n
		out.n.i1 = arg
	}
	return out
}

func backMax(n *node) {
	xn := n.a
	xn.ensureGrad()
	xn.grad[n.i1] += n.grad[0]
}

// SegmentSoftmax applies a softmax independently within each contiguous
// segment of x. offsets[i] is the start of segment i and lens[i] its length;
// segments must tile x exactly. This is the DOTE post-processor (Figure 2):
// it turns raw DNN outputs into per-demand split ratios that sum to one.
// The offsets and lens slices are retained by the tape until Reset; callers
// must not mutate them while the tape is live.
func SegmentSoftmax(x Value, offsets, lens []int) Value {
	if x.Cols() != 1 {
		panic("ad: SegmentSoftmax requires a vector")
	}
	total := 0
	for _, l := range lens {
		total += l
	}
	if total != x.Len() || len(offsets) != len(lens) {
		panic("ad: SegmentSoftmax segments must tile the input")
	}
	t := x.t
	out := t.result(x.Rows(), 1, x.n.requires)
	for s := range offsets {
		o, l := offsets[s], lens[s]
		if l == 0 {
			continue
		}
		m := math.Inf(-1)
		for i := o; i < o+l; i++ {
			if x.n.data[i] > m {
				m = x.n.data[i]
			}
		}
		sum := 0.0
		for i := o; i < o+l; i++ {
			e := math.Exp(x.n.data[i] - m)
			out.n.data[i] = e
			sum += e
		}
		for i := o; i < o+l; i++ {
			out.n.data[i] /= sum
		}
	}
	if out.n.requires {
		out.n.bk = bkSegmentSoftmax
		out.n.a = x.n
		out.n.ints = offsets
		out.n.ints2 = lens
	}
	return out
}

func backSegmentSoftmax(n *node) {
	xn := n.a
	xn.ensureGrad()
	offsets, lens := n.ints, n.ints2
	for s := range offsets {
		o, l := offsets[s], lens[s]
		if l == 0 {
			continue
		}
		// dx_i = y_i * (g_i - Σ_j g_j y_j)
		dot := 0.0
		for i := o; i < o+l; i++ {
			dot += n.grad[i] * n.data[i]
		}
		for i := o; i < o+l; i++ {
			xn.grad[i] += n.data[i] * (n.grad[i] - dot)
		}
	}
}

// SegmentMax computes the maximum within each contiguous segment; the
// subgradient flows to the first attaining element of each segment.
func SegmentMax(x Value, offsets, lens []int) Value {
	if x.Cols() != 1 {
		panic("ad: SegmentMax requires a vector")
	}
	t := x.t
	out := t.result(len(offsets), 1, x.n.requires)
	args := t.ia.alloc(len(offsets))
	for s := range offsets {
		o, l := offsets[s], lens[s]
		if l == 0 {
			panic("ad: SegmentMax with empty segment")
		}
		best, arg := x.n.data[o], o
		for i := o + 1; i < o+l; i++ {
			if x.n.data[i] > best {
				best, arg = x.n.data[i], i
			}
		}
		out.n.data[s] = best
		args[s] = arg
	}
	if out.n.requires {
		out.n.bk = bkSegmentMax
		out.n.a = x.n
		out.n.ints = args
	}
	return out
}

func backSegmentMax(n *node) {
	xn := n.a
	xn.ensureGrad()
	for s := range n.ints {
		xn.grad[n.ints[s]] += n.grad[s]
	}
}

// Custom records a user-defined differentiable op over the given inputs.
// forward receives the input data slices and the (zeroed) output buffer to
// fill in place. backward receives (inputs, output, outputGrad, gin) and
// must ACCUMULATE (+=) each input's gradient into the corresponding gin
// slice; gin[i] is nil for inputs that need no gradient. Neither closure may
// retain its buffer arguments. This in-place contract keeps the routing
// step and other extension-point ops allocation-free.
func Custom(t *Tape, inputs []Value, rows, cols int,
	forward func(in [][]float64, out []float64),
	backward func(in [][]float64, out, gout []float64, gin [][]float64),
) Value {
	requires := false
	datas := t.ra.allocSlices(len(inputs))
	for i, v := range inputs {
		if v.t != t {
			panic("ad: Custom input from different tape")
		}
		datas[i] = v.n.data
		requires = requires || v.n.requires
	}
	out := t.result(rows, cols, requires)
	forward(datas, out.n.data)
	if requires {
		on := out.n
		on.bk = bkCustom
		ins := t.ra.allocNodes(len(inputs))
		for i, v := range inputs {
			ins[i] = v.n
		}
		on.srcs = ins
		on.customB = backward
		on.customIn = datas
		on.customG = t.ra.allocSlices(len(inputs))
	}
	return out
}

func backCustom(n *node) {
	gin := n.customG
	for i, in := range n.srcs {
		if in.requires {
			in.ensureGrad()
			gin[i] = in.grad
		} else {
			gin[i] = nil
		}
	}
	n.customB(n.customIn, n.data, n.grad, gin)
}
