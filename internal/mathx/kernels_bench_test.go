package mathx

import (
	"fmt"
	"testing"
)

// Layer micro-benchmarks of the dense-layer kernels at the simulator
// presets' layer shapes (in->out: 64->32, 32->10, 32->100, 81->64), at the
// training batch (10 rows) and a test split (15 rows), on every kernel path
// this build and CPU can take.
var benchLayerShapes = []struct{ in, out int }{{64, 32}, {32, 10}, {32, 100}, {81, 64}}

func benchLayers(b *testing.B, run func(b *testing.B, rows, in, out int)) {
	for _, s := range benchLayerShapes {
		for _, rows := range []int{10, 15} {
			b.Run(fmt.Sprintf("%dx%d/b%d", s.in, s.out, rows), func(b *testing.B) {
				forEachPath(func(path string) {
					b.Run(path, func(b *testing.B) { run(b, rows, s.in, s.out) })
				})
			})
		}
	}
}

func BenchmarkAffineRows(b *testing.B) {
	benchLayers(b, func(b *testing.B, rows, in, out int) {
		g := lcg(1)
		x, w, bias := randMatrix(&g, rows, in), randVec(&g, in*out), randVec(&g, out)
		dst := NewMatrix(rows, out)
		b.ReportAllocs()
		for b.Loop() {
			AffineRowsReLU(x, w, bias, dst)
		}
	})
}

func BenchmarkAccumGrads(b *testing.B) {
	benchLayers(b, func(b *testing.B, rows, in, out int) {
		g := lcg(2)
		delta, act := sparseDeltas(&g, rows, out, 4, true), randMatrix(&g, rows, in)
		wg, bg := make([]float64, in*out), make([]float64, out)
		b.ReportAllocs()
		for b.Loop() {
			AccumGrads(delta, act, wg, bg)
		}
	})
}

func BenchmarkBackpropReLUDelta(b *testing.B) {
	benchLayers(b, func(b *testing.B, rows, in, out int) {
		g := lcg(3)
		delta, w, act := sparseDeltas(&g, rows, out, 4, false), randVec(&g, in*out), randMatrix(&g, rows, in)
		prev := NewMatrix(rows, in)
		b.ReportAllocs()
		for b.Loop() {
			BackpropReLUDelta(delta, w, act, prev)
		}
	})
}
