package mathx

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so the kernel tests do not depend on
// xrand (which sits above mathx in the package graph).
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	// Map the top bits into [-1, 1).
	return float64(int64(*g>>11))/float64(1<<52) - 1
}

func randMatrix(g *lcg, rows, cols int) Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = g.next()
	}
	return m
}

func randVec(g *lcg, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = g.next()
	}
	return v
}

func TestMatrixRowViewsAlias(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Row(1)[0] = 7
	if m.Data[2] != 7 {
		t.Fatal("Row is not a view into Data")
	}
	v := m.RowRange(1, 3)
	if v.Rows != 2 || v.Cols != 2 || &v.Data[0] != &m.Data[2] {
		t.Fatal("RowRange is not a zero-copy view")
	}
	if top := m.Top(1); top.Rows != 1 || &top.Data[0] != &m.Data[0] {
		t.Fatal("Top is not a zero-copy prefix view")
	}
}

func TestMatrixFromRowsAndClone(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.Data[3] != 4 {
		t.Fatalf("MatrixFromRows got %+v", m)
	}
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
	if e := MatrixFromRows(nil); e.Rows != 0 || len(e.Data) != 0 {
		t.Fatal("empty MatrixFromRows should be the zero matrix")
	}
}

func TestMatrixFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged input should panic")
		}
	}()
	MatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestMatrixGrowReusesStorage(t *testing.T) {
	m := NewMatrix(8, 4)
	p := &m.Data[0]
	g := m.Grow(2, 4)
	if g.Rows != 2 || g.Cols != 4 || &g.Data[0] != p {
		t.Fatal("Grow within capacity should reuse storage")
	}
	big := m.Grow(16, 4)
	if big.Rows != 16 || len(big.Data) != 64 {
		t.Fatal("Grow beyond capacity should reallocate to the new shape")
	}
}

func TestGatherRows(t *testing.T) {
	src := MatrixFromRows([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	dst := NewMatrix(3, 2)
	GatherRows(dst, src, []int{3, 1, 3})
	want := []float64{3, 3, 1, 1, 3, 3}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("GatherRows got %v, want %v", dst.Data, want)
		}
	}
}

// Kernel shapes for the differential tests: every row count up to two full
// eight-lane blocks plus one, input widths on both sides of the lane
// buffer's laneChunk columns, and odd and even output widths.
var (
	kernelRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	kernelIns  = []int{0, 1, 7, 127, 128, 129, 300}
	kernelOuts = []int{1, 4, 5, 10}
)

// TestAffineRowsMatchesDot pins the float-determinism contract: every batch
// row must equal b[o] + Dot(wRow, xRow) bit for bit, on every kernel path,
// for 8- and 4-lane blocks, padded lanes and multi-chunk inputs.
func TestAffineRowsMatchesDot(t *testing.T) {
	g := lcg(1)
	forEachPath(func(path string) {
		for _, rows := range kernelRows {
			for _, in := range kernelIns {
				for _, outDim := range kernelOuts {
					x := randMatrix(&g, rows, in)
					w := randVec(&g, outDim*in)
					b := randVec(&g, outDim)
					out := NewMatrix(rows, outDim)
					AffineRows(x, w, b, out)
					for r := 0; r < rows; r++ {
						for o := 0; o < outDim; o++ {
							want := b[o] + Dot(w[o*in:(o+1)*in], x.Row(r))
							if got := out.Row(r)[o]; got != want {
								t.Fatalf("%s %dx%d->%d: out[%d][%d] = %v, want %v (bitwise)", path, rows, in, outDim, r, o, got, want)
							}
						}
					}
				}
			}
		}
	})
}

// TestAffineRowsReLUMatchesTwoPass pins the fused variant bit-identical to
// AffineRows followed by ReLURows, on every kernel path.
func TestAffineRowsReLUMatchesTwoPass(t *testing.T) {
	g := lcg(9)
	forEachPath(func(path string) {
		for _, rows := range []int{1, 3, 4, 7, 8, 9, 16, 21} {
			for _, in := range []int{6, 129} {
				x := randMatrix(&g, rows, in)
				w := randVec(&g, 5*in)
				b := randVec(&g, 5)
				fused := NewMatrix(rows, 5)
				AffineRowsReLU(x, w, b, fused)
				twoPass := NewMatrix(rows, 5)
				AffineRows(x, w, b, twoPass)
				ReLURows(twoPass)
				for i := range fused.Data {
					if fused.Data[i] != twoPass.Data[i] {
						t.Fatalf("%s rows=%d in=%d: fused ReLU diverges at %d: %v vs %v", path, rows, in, i, fused.Data[i], twoPass.Data[i])
					}
				}
			}
		}
	})
}

func TestReLUAndSoftmaxRowsMatchScalar(t *testing.T) {
	g := lcg(2)
	m := randMatrix(&g, 6, 5)
	relu := m.Clone()
	ReLURows(relu)
	soft := m.Clone()
	SoftmaxRows(soft)
	for r := 0; r < m.Rows; r++ {
		wantRelu := CloneVec(m.Row(r))
		for i, v := range wantRelu {
			if v < 0 {
				wantRelu[i] = 0
			}
		}
		wantSoft := CloneVec(m.Row(r))
		SoftmaxInPlace(wantSoft)
		for i := range wantRelu {
			if relu.Row(r)[i] != wantRelu[i] {
				t.Fatal("ReLURows differs from scalar clamp")
			}
			if soft.Row(r)[i] != wantSoft[i] {
				t.Fatal("SoftmaxRows differs from SoftmaxInPlace")
			}
		}
	}
}

func TestSoftmaxCEDelta(t *testing.T) {
	probs := MatrixFromRows([][]float64{{0.2, 0.8}, {0.6, 0.4}})
	delta := NewMatrix(2, 2)
	SoftmaxCEDelta(probs, []int{1, 0}, delta)
	want := CloneVec(probs.Data)
	want[1]-- // label 1 of row 0
	want[2]-- // label 0 of row 1
	for i, v := range want {
		if delta.Data[i] != v {
			t.Fatalf("SoftmaxCEDelta got %v, want %v", delta.Data, want)
		}
	}
}

// sparseDeltas returns a rows x cols delta matrix with ReLU-like exact
// zeros: about a third at random, plus every element whose position in an
// aligned block of four (along the kernel's blocking axis) equals hole.
func sparseDeltas(g *lcg, rows, cols, hole int, alongRows bool) Matrix {
	d := randMatrix(g, rows, cols)
	for r := 0; r < rows; r++ {
		for o := 0; o < cols; o++ {
			pos := o
			if alongRows {
				pos = r
			}
			if pos%4 == hole || g.next() < -1.0/3 {
				d.Row(r)[o] = 0
			}
		}
	}
	return d
}

// TestAccumGradsMatchesPerSample pins bit-identity of the batched gradient
// accumulation against the sample-by-sample reference order, including the
// zero-delta skip at every position of a four-sample block, on every
// kernel path.
func TestAccumGradsMatchesPerSample(t *testing.T) {
	g := lcg(3)
	forEachPath(func(path string) {
		for _, rows := range kernelRows {
			for _, in := range kernelIns {
				for _, out := range kernelOuts {
					for hole := 0; hole <= 4; hole++ {
						delta := sparseDeltas(&g, rows, out, hole, true)
						act := randMatrix(&g, rows, in)
						wg := randVec(&g, in*out)
						bg := randVec(&g, out)
						wantWG := CloneVec(wg)
						wantBG := CloneVec(bg)

						// Reference: per-sample accumulation exactly as MLP.backward orders it.
						for r := 0; r < rows; r++ {
							for o := 0; o < out; o++ {
								d := delta.Row(r)[o]
								if d == 0 {
									continue
								}
								wantBG[o] += d
								Axpy(d, act.Row(r), wantWG[o*in:(o+1)*in])
							}
						}

						AccumGrads(delta, act, wg, bg)
						for i := range wantWG {
							if wg[i] != wantWG[i] {
								t.Fatalf("%s %dx%d->%d hole %d: weight grad %d: %v != %v (bitwise)", path, rows, in, out, hole, i, wg[i], wantWG[i])
							}
						}
						for i := range wantBG {
							if bg[i] != wantBG[i] {
								t.Fatalf("%s %dx%d->%d hole %d: bias grad %d: %v != %v (bitwise)", path, rows, in, out, hole, i, bg[i], wantBG[i])
							}
						}
					}
				}
			}
		}
	})
}

// TestBackpropReLUDeltaMatchesPerSample pins the batched delta propagation
// (including the ReLU mask and the zero-delta skip at every position of a
// four-output block) against the scalar reference, on every kernel path.
func TestBackpropReLUDeltaMatchesPerSample(t *testing.T) {
	g := lcg(4)
	forEachPath(func(path string) {
		for _, rows := range kernelRows {
			for _, in := range kernelIns {
				for _, out := range kernelOuts {
					for hole := 0; hole <= 4; hole++ {
						delta := sparseDeltas(&g, rows, out, hole, false)
						w := randVec(&g, in*out)
						act := randMatrix(&g, rows, in)
						// Exact zeros and negatives exercise the mask.
						for i := range act.Data {
							if i%5 == 0 {
								act.Data[i] = 0
							}
						}

						prev := NewMatrix(rows, in)
						BackpropReLUDelta(delta, w, act, prev)

						for r := 0; r < rows; r++ {
							want := make([]float64, in)
							for o := 0; o < out; o++ {
								d := delta.Row(r)[o]
								if d == 0 {
									continue
								}
								Axpy(d, w[o*in:(o+1)*in], want)
							}
							for i, v := range act.Row(r) {
								if v <= 0 {
									want[i] = 0
								}
							}
							for i := range want {
								if prev.Row(r)[i] != want[i] {
									t.Fatalf("%s %dx%d->%d hole %d: row %d elem %d: %v != %v (bitwise)", path, rows, in, out, hole, r, i, prev.Row(r)[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	})
}

func TestKernelShapePanics(t *testing.T) {
	cases := map[string]func(){
		"affine weights":  func() { AffineRows(NewMatrix(2, 3), make([]float64, 5), make([]float64, 2), NewMatrix(2, 2)) },
		"affine out":      func() { AffineRows(NewMatrix(2, 3), make([]float64, 6), make([]float64, 2), NewMatrix(1, 2)) },
		"gather shape":    func() { GatherRows(NewMatrix(1, 2), NewMatrix(3, 2), []int{0, 1}) },
		"ce delta shape":  func() { SoftmaxCEDelta(NewMatrix(2, 2), []int{0}, NewMatrix(2, 2)) },
		"accum shapes":    func() { AccumGrads(NewMatrix(2, 2), NewMatrix(3, 2), make([]float64, 4), make([]float64, 2)) },
		"backprop shapes": func() { BackpropReLUDelta(NewMatrix(2, 2), make([]float64, 3), NewMatrix(2, 2), NewMatrix(2, 2)) },
		"row range":       func() { NewMatrix(2, 2).RowRange(1, 3) },
		"negative dims":   func() { NewMatrix(-1, 2) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAffineRowsBlockedEqualsRemainder cross-checks that an 8-lane block, a
// 4-lane block and a padded lane agree bitwise for identical rows.
func TestAffineRowsBlockedEqualsRemainder(t *testing.T) {
	g := lcg(5)
	row := randVec(&g, 6)
	w := randVec(&g, 4*6)
	b := randVec(&g, 4)
	// 11 identical rows: rows 0-7 form an 8-lane block, rows 8-10 a 4-lane
	// block with one padded lane.
	x := NewMatrix(11, 6)
	for r := 0; r < 11; r++ {
		copy(x.Row(r), row)
	}
	forEachPath(func(path string) {
		out := NewMatrix(11, 4)
		AffineRows(x, w, b, out)
		for r := 1; r < 11; r++ {
			for o := 0; o < 4; o++ {
				if out.Row(r)[o] != out.Row(0)[o] {
					t.Fatalf("%s: row %d diverges from row 0 at %d: %v vs %v — 8-lane and 4-lane blocks disagree",
						path, r, o, out.Row(r)[o], out.Row(0)[o])
				}
			}
		}
		if math.IsNaN(out.Row(0)[0]) {
			t.Fatal("unexpected NaN")
		}
	})
}
