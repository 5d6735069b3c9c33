package mathx

// The two primitives under the dense-layer kernels, as portable Go bodies.
// On amd64 (outside race builds) they have AVX bodies in lanes_amd64.s that
// compute exactly the same values; the kernels in kernels.go call the
// dispatching wrappers dotLanes, axpy4 and axpy1 and never fork themselves.
//
// Every float64(x * y) below is an explicit rounding: it forbids the compiler
// from fusing the multiply into the following add (the Go spec allows fusion
// otherwise, and some architectures do it), so products and sums stay
// separately rounded as the kernel contract requires.

// dotLanesGo is the portable body of dotLanes: for every lane l < lanes and
// ascending i < len(w0),
//
//	acc[l]   += xt[i*lanes+l] * w0[i]
//	acc[8+l] += xt[i*lanes+l] * w1[i]
//
// xt holds len(w0) columns of lanes transposed rows; lanes is 4 or 8. Every
// sweep carries eight independent add chains, enough to hide FP-add
// latency: eight lanes take the two outputs one after the other, four lanes
// take both at once.
func dotLanesGo(xt, w0, w1 []float64, acc *[16]float64, lanes int) {
	if lanes == 8 {
		dot8Go(xt, w0, (*[8]float64)(acc[0:]))
		dot8Go(xt, w1, (*[8]float64)(acc[8:]))
		return
	}
	w1 = w1[:len(w0)]
	p, q := (*[4]float64)(acc[0:]), (*[4]float64)(acc[8:])
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	for i, u := range w0 {
		v, x := w1[i], (*[4]float64)(xt[i*4:])
		p0 += float64(x[0] * u)
		q0 += float64(x[0] * v)
		p1 += float64(x[1] * u)
		q1 += float64(x[1] * v)
		p2 += float64(x[2] * u)
		q2 += float64(x[2] * v)
		p3 += float64(x[3] * u)
		q3 += float64(x[3] * v)
	}
	p[0], p[1], p[2], p[3] = p0, p1, p2, p3
	q[0], q[1], q[2], q[3] = q0, q1, q2, q3
}

// dot8Go runs eight lanes through one weight sweep.
func dot8Go(xt, w []float64, acc *[8]float64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for i, u := range w {
		x := (*[8]float64)(xt[i*8:])
		a0 += float64(x[0] * u)
		a1 += float64(x[1] * u)
		a2 += float64(x[2] * u)
		a3 += float64(x[3] * u)
		a4 += float64(x[4] * u)
		a5 += float64(x[5] * u)
		a6 += float64(x[6] * u)
		a7 += float64(x[7] * u)
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = a0, a1, a2, a3, a4, a5, a6, a7
}

// axpy4Go is the portable body of axpy4: for every i < len(y),
//
//	y[i] = (((y[i] + d[0]*a0[i]) + d[1]*a1[i]) + d[2]*a2[i]) + d[3]*a3[i]
func axpy4Go(y, a0, a1, a2, a3 []float64, d *[4]float64) {
	a0, a1, a2, a3 = a0[:len(y)], a1[:len(y)], a2[:len(y)], a3[:len(y)]
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	for i, t := range y {
		t += float64(d0 * a0[i])
		t += float64(d1 * a1[i])
		t += float64(d2 * a2[i])
		t += float64(d3 * a3[i])
		y[i] = t
	}
}

// axpy1Go is the portable body of axpy1: y[i] += d*a[i] for every i < len(y).
func axpy1Go(y, a []float64, d float64) {
	a = a[:len(y)]
	for i, v := range a {
		y[i] += float64(d * v)
	}
}
