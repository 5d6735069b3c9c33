//go:build !race

package mathx

// useAVX selects the AVX bodies of the lane primitives. It is set once, from
// the CPU and OS feature check; the race detector cannot see memory accessed
// from assembly, so race builds compile the portable bodies alone.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves YMM state.
func hasAVX() bool

//go:noescape
func dotLanesAVX(xt, w0, w1 []float64, acc *[16]float64, lanes int)

//go:noescape
func axpy4AVX(y, a0, a1, a2, a3 []float64, d *[4]float64)

//go:noescape
func axpy1AVX(y, a []float64, d float64)

// The wrappers below bound every slice the assembly reads to the length it
// reads, so a short argument panics here instead of reading past it.

func dotLanes(xt, w0, w1 []float64, acc *[16]float64, lanes int) {
	xt, w1 = xt[:len(w0)*lanes], w1[:len(w0)]
	if useAVX && (lanes == 4 || lanes == 8) {
		dotLanesAVX(xt, w0, w1, acc, lanes)
		return
	}
	dotLanesGo(xt, w0, w1, acc, lanes)
}

func axpy4(y, a0, a1, a2, a3 []float64, d *[4]float64) {
	a0, a1, a2, a3 = a0[:len(y)], a1[:len(y)], a2[:len(y)], a3[:len(y)]
	if useAVX {
		axpy4AVX(y, a0, a1, a2, a3, d)
		return
	}
	axpy4Go(y, a0, a1, a2, a3, d)
}

func axpy1(y, a []float64, d float64) {
	a = a[:len(y)]
	if useAVX {
		axpy1AVX(y, a, d)
		return
	}
	axpy1Go(y, a, d)
}
