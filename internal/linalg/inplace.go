package linalg

// In-place kernels over raw row-major slices: the caller owns every buffer,
// nothing is allocated, and AccumInto accumulates (dst += …) so reverse-mode
// AD can fold gradient contributions without temporaries. The ad package's
// matrix ops are routed through these kernels and the blocked matmuls.

// AddInto computes dst = a + b elementwise.
func AddInto(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("linalg: AddInto length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// AccumInto computes dst += src.
func AccumInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("linalg: AccumInto length mismatch")
	}
	for i := range src {
		dst[i] += src[i]
	}
}
