package mathx

import "fmt"

// Batched neural-network kernels over Matrix storage.
//
// # Float-determinism contract
//
// The accumulation order of every kernel in this file is part of its API:
// each output element is produced by one accumulator that consumes its
// contributions in the same order as the per-sample reference loops (Dot's
// ascending-index product sum, sample-ascending gradient accumulation,
// output-ascending delta backpropagation), and zero contributions are
// skipped exactly where the reference skips them. Every multiply and every
// add is rounded on its own: there is no fused multiply-add anywhere, and
// everything is float64. Results are therefore bit-identical to the scalar
// loops — the property the simulation's worker-count invariance, checkpoint
// resume, and the CI metric gate (cmd/benchgate) all rest on. Any change to
// these loop orders is a numerics change, even if it is algebraically
// neutral.
//
// The kernels are written once, on two primitives (lanes.go): dotLanes
// sweeps up to eight rows, transposed into lanes, through a pair of weight
// rows, and axpy4/axpy1 apply four (or one) scaled rows to a vector in
// order. On amd64 the primitives run 256-bit AVX bodies (lanes_amd64.s),
// chosen once from a CPUID/XGETBV check:
//
//   - A SIMD lane is always one independent output element with its own
//     accumulator, never a split of one element's sum.
//   - AVX1 only: VMULPD then VADDPD, never FMA, never single precision.
//     TestAssemblyKeepsKernelOrder enforces this on the assembly.
//   - Scalar tails use the VEX-encoded scalar forms (VMOVSD, VMULSD,
//     VADDSD) of the same operations.
//
// The AVX bodies therefore compute exactly what the portable Go bodies
// compute. Builds with the race tag run the portable bodies, because the
// race detector cannot see memory accessed from assembly; so do other
// architectures and CPUs without AVX.

// laneChunk is how many input columns AffineRows transposes at a time; the
// lane buffer (laneChunk*8 float64s) lives on the stack.
const laneChunk = 128

// AffineRows computes the dense-layer pre-activations for a whole batch:
//
//	out[r][o] = b[o] + sum_i x[r][i] * w[o*x.Cols+i]
//
// w is row-major [len(b)][x.Cols] — the layer's weight matrix. For each
// (r, o) the product sum runs over ascending i into a single accumulator
// starting from +0, and the bias is added after the sum, exactly like
// b[o] + Dot(wRow, xRow). Rows are taken in blocks of eight lanes (four
// when at most four rows remain) that share each weight-row sweep; each
// lane is one row's accumulator, so blocking does not alter any element's
// accumulation order.
func AffineRows(x Matrix, w, b []float64, out Matrix) {
	affineRows(x, w, b, out, false)
}

// AffineRowsReLU is AffineRows with the ReLU clamp fused into the output
// write: out[r][o] = max(0, b[o] + sum). Bit-identical to AffineRows
// followed by ReLURows, one pass over out cheaper.
func AffineRowsReLU(x Matrix, w, b []float64, out Matrix) {
	affineRows(x, w, b, out, true)
}

func affineRows(x Matrix, w, b []float64, out Matrix, relu bool) {
	in, outDim := x.Cols, len(b)
	if len(w) != in*outDim {
		panic(fmt.Sprintf("mathx: AffineRows weights %d, want %dx%d", len(w), outDim, in))
	}
	if out.Rows != x.Rows || out.Cols != outDim {
		panic(fmt.Sprintf("mathx: AffineRows out %dx%d, want %dx%d", out.Rows, out.Cols, x.Rows, outDim))
	}
	var xt [laneChunk * 8]float64
	for r := 0; r < x.Rows; {
		lanes := 8
		if x.Rows-r <= 4 {
			lanes = 4
		}
		live := min(lanes, x.Rows-r)
		od := out.Data[r*outDim : (r+live)*outDim]
		// One pass per chunk of columns; an empty input still takes one
		// (empty) pass so every output gets b[o] + 0. Between chunks each
		// element's running sum is parked in out, which is exact.
		for c0 := 0; c0 == 0 || c0 < in; c0 += laneChunk {
			n := min(laneChunk, in-c0)
			t := xt[:n*lanes]
			for l := 0; l < lanes; l++ {
				// Padded lanes are computed and discarded; zeroing them keeps
				// stale values (subnormals, NaNs) out of the arithmetic.
				if l >= live {
					for i := l; i < len(t); i += lanes {
						t[i] = 0
					}
					continue
				}
				for i, v := range x.Data[(r+l)*in+c0 : (r+l)*in+c0+n] {
					t[i*lanes+l] = v
				}
			}
			last := c0+n == in
			for o := 0; o < outDim; o += 2 {
				// An odd last output pairs with itself; both halves agree.
				o1 := min(o+1, outDim-1)
				var acc [16]float64
				if c0 > 0 {
					for l := 0; l < live; l++ {
						acc[l], acc[8+l] = od[l*outDim+o], od[l*outDim+o1]
					}
				}
				dotLanes(t, w[o*in+c0:o*in+c0+n], w[o1*in+c0:o1*in+c0+n], &acc, lanes)
				for l := 0; l < live; l++ {
					s0, s1 := acc[l], acc[8+l]
					if last {
						s0, s1 = b[o]+s0, b[o1]+s1
						if relu {
							s0, s1 = clamp0(s0), clamp0(s1)
						}
					}
					od[l*outDim+o], od[l*outDim+o1] = s0, s1
				}
			}
		}
		r += live
	}
}

// clamp0 is the ReLU: negatives become zero, exactly like the scalar
// forward pass's `if v < 0 { v = 0 }`.
func clamp0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// ReLURows clamps negative entries of m to zero in place, matching the
// per-element `if v < 0 { v = 0 }` of the scalar forward pass.
func ReLURows(m Matrix) {
	data := m.Data[:m.Rows*m.Cols]
	for i, v := range data {
		if v < 0 {
			data[i] = 0
		}
	}
}

// SoftmaxRows applies SoftmaxInPlace to every row of m — the batched softmax
// head. Each row goes through the identical stable shifted-exponent code
// path as the per-sample loop.
func SoftmaxRows(m Matrix) {
	for r := 0; r < m.Rows; r++ {
		SoftmaxInPlace(m.Row(r))
	}
}

// SoftmaxCEDelta fills delta with the softmax-cross-entropy output error for
// a whole batch: delta[r] = probs[r] - onehot(ys[r]). Labels must be in
// range; callers validate them (with their own diagnostics) first.
func SoftmaxCEDelta(probs Matrix, ys []int, delta Matrix) {
	if probs.Rows != len(ys) || delta.Rows != probs.Rows || delta.Cols != probs.Cols {
		panic(fmt.Sprintf("mathx: SoftmaxCEDelta probs %dx%d, delta %dx%d, %d labels",
			probs.Rows, probs.Cols, delta.Rows, delta.Cols, len(ys)))
	}
	for r, y := range ys {
		dr := delta.Row(r)
		copy(dr, probs.Row(r))
		dr[y]--
	}
}

// AccumGrads accumulates a batch's dense-layer gradient into wg (row-major
// [delta.Cols][act.Cols]) and bg (len delta.Cols):
//
//	wg[o][i] += sum_r delta[r][o] * act[r][i]
//	bg[o]    += sum_r delta[r][o]
//
// For every destination element the contributions are applied in ascending
// sample order r, and samples with delta[r][o] == 0 are skipped — exactly
// the order and sparsity of the per-sample reference loop, so the
// accumulated gradient is bit-identical to running backward sample by
// sample.
func AccumGrads(delta, act Matrix, wg, bg []float64) {
	in, outDim := act.Cols, delta.Cols
	if delta.Rows != act.Rows {
		panic(fmt.Sprintf("mathx: AccumGrads delta has %d rows, act %d", delta.Rows, act.Rows))
	}
	if len(wg) != in*outDim || len(bg) != outDim {
		panic(fmt.Sprintf("mathx: AccumGrads wg %d, bg %d, want %dx%d and %d", len(wg), len(bg), outDim, in, outDim))
	}
	dd := delta.Data
	for o := 0; o < outDim; o++ {
		wrow := wg[o*in : o*in+in]
		bo := bg[o]
		// Skip the zero deltas first, then apply the surviving samples four
		// at a time: each element still takes every non-zero sample's
		// product in ascending sample order, one rounded add at a time.
		var a [4][]float64
		var d [4]float64
		k := 0
		for r := 0; r < delta.Rows; r++ {
			dv := dd[r*outDim+o]
			if dv == 0 {
				continue
			}
			bo += dv
			a[k], d[k] = act.Data[r*in:r*in+in], dv
			if k++; k == 4 {
				axpy4(wrow, a[0], a[1], a[2], a[3], &d)
				k = 0
			}
		}
		for j := 0; j < k; j++ {
			axpy1(wrow, a[j], d[j])
		}
		bg[o] = bo
	}
}

// BackpropReLUDelta propagates a batch's error terms through a dense layer
// and its ReLU: for every row r,
//
//	prev[r][i] = sum_o delta[r][o] * w[o*prev.Cols+i]   (ascending o,
//	                                                     delta == 0 skipped)
//
// then prev[r][i] is zeroed wherever the forward activation act[r][i] <= 0
// (the ReLU derivative). Identical, element for element, to the per-sample
// reference loop.
func BackpropReLUDelta(delta Matrix, w []float64, act, prev Matrix) {
	in, outDim := prev.Cols, delta.Cols
	if len(w) != in*outDim {
		panic(fmt.Sprintf("mathx: BackpropReLUDelta weights %d, want %dx%d", len(w), outDim, in))
	}
	if act.Rows != delta.Rows || prev.Rows != delta.Rows || act.Cols != in {
		panic(fmt.Sprintf("mathx: BackpropReLUDelta delta %dx%d, act %dx%d, prev %dx%d",
			delta.Rows, delta.Cols, act.Rows, act.Cols, prev.Rows, prev.Cols))
	}
	for r := 0; r < delta.Rows; r++ {
		pr := prev.Row(r)[:in]
		Fill(pr, 0)
		// As in AccumGrads: non-zero output deltas in ascending order, four
		// weight rows per sweep of pr.
		var a [4][]float64
		var d [4]float64
		k := 0
		for o, dv := range delta.Row(r) {
			if dv == 0 {
				continue
			}
			a[k], d[k] = w[o*in:o*in+in], dv
			if k++; k == 4 {
				axpy4(pr, a[0], a[1], a[2], a[3], &d)
				k = 0
			}
		}
		for j := 0; j < k; j++ {
			axpy1(pr, a[j], d[j])
		}
		ar := act.Row(r)[:in]
		for i, v := range ar {
			if v <= 0 {
				pr[i] = 0
			}
		}
	}
}
