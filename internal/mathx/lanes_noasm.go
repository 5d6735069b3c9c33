//go:build !amd64 || race

package mathx

func dotLanes(xt, w0, w1 []float64, acc *[16]float64, lanes int) {
	dotLanesGo(xt, w0, w1, acc, lanes)
}

func axpy4(y, a0, a1, a2, a3 []float64, d *[4]float64) { axpy4Go(y, a0, a1, a2, a3, d) }

func axpy1(y, a []float64, d float64) { axpy1Go(y, a, d) }
