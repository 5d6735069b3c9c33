//go:build !race

package mathx

import "testing"

// forEachPath runs f once per kernel path this build and CPU can take:
// the portable bodies, then the AVX bodies when the CPU has them.
func forEachPath(f func(path string)) {
	defer func(saved bool) { useAVX = saved }(useAVX)
	useAVX = false
	f("portable")
	if hasAVX() {
		useAVX = true
		f("avx")
	}
}

// TestLanePrimitivesMatchPortable pins every AVX body to its portable body
// on every length through two full vectors and a tail, with -0, ±Inf,
// subnormals, overflow and NaN mixed into the operands.
func TestLanePrimitivesMatchPortable(t *testing.T) {
	if !hasAVX() {
		t.Skip("CPU or OS lacks AVX")
	}
	g := lcg(11)
	for trial := 0; trial < 20; trial++ {
		for _, lanes := range []int{4, 8} {
			for n := 0; n <= 2*lanes+5; n++ {
				xt, w0, w1 := specialVec(&g, n*lanes), specialVec(&g, n), specialVec(&g, n)
				var got, want [16]float64
				copy(got[:], specialVec(&g, 16))
				want = got
				dotLanesAVX(xt, w0, w1, &got, lanes)
				dotLanesGo(xt, w0, w1, &want, lanes)
				for i := range got {
					if !sameFloat(got[i], want[i]) {
						t.Fatalf("dotLanes lanes=%d n=%d: acc[%d] = %v, portable %v", lanes, n, i, got[i], want[i])
					}
				}
			}
		}
		// axpy4 and axpy1 run four float64s per vector.
		for n := 0; n <= 2*4+5; n++ {
			a0, a1, a2, a3 := specialVec(&g, n), specialVec(&g, n), specialVec(&g, n), specialVec(&g, n)
			var d [4]float64
			copy(d[:], specialVec(&g, 4))
			got := specialVec(&g, n)
			want := CloneVec(got)
			axpy4AVX(got, a0, a1, a2, a3, &d)
			axpy4Go(want, a0, a1, a2, a3, &d)
			for i := range got {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("axpy4 n=%d: y[%d] = %v, portable %v", n, i, got[i], want[i])
				}
			}
			axpy1AVX(got, a0, d[0])
			axpy1Go(want, a0, d[0])
			for i := range got {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("axpy1 n=%d: y[%d] = %v, portable %v", n, i, got[i], want[i])
				}
			}
		}
	}
}
