package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// diffSeeds covers math/rand's seed normalization: zero (mapped to
// 89482311), ±1, negatives, the modulus 2³¹−1 and its multiples (which
// reduce to zero), values above 2³¹, the int64 extremes, and 89482311 itself.
var diffSeeds = []int64{
	0, 1, -1, -2, -12345, 42, 7,
	lcgMod, 2 * lcgMod, -lcgMod, 3*lcgMod + 1,
	1 << 31, 1<<31 + 5, 1 << 40, -(1 << 40) - 3,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	89482311,
}

// refRNG returns an RNG whose front end runs on math/rand's own source, so
// every RNG method can be compared against the lazily seeded one.
func refRNG(seed int64) *RNG {
	return &RNG{seed: seed, rnd: rand.New(rand.NewSource(seed))}
}

// TestSourceMatchesMathRand compares raw Uint64/Int63 streams with
// math/rand's for stream lengths on both sides of the 273-draw lazy phase,
// the 334-draw feed wrap and the 607-word register wrap.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range diffSeeds {
		for _, n := range []int{1, 3, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1300} {
			var got source
			got.Seed(seed)
			want := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < n; i++ {
				var g, w uint64
				if i%2 == 0 {
					g, w = got.Uint64(), want.Uint64()
				} else {
					g, w = uint64(got.Int63()), uint64(want.Int63())
				}
				if g != w {
					t.Fatalf("seed %d, stream of %d: draw %d = %#x, math/rand %#x", seed, n, i, g, w)
				}
			}
		}
	}
}

// TestSourceReseed pins that Seed restarts the stream, including after the
// register was materialized.
func TestSourceReseed(t *testing.T) {
	var s source
	s.Seed(5)
	first := make([]uint64, 700)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(5)
	for i, w := range first {
		if g := s.Uint64(); g != w {
			t.Fatalf("reseeded draw %d = %#x, want %#x", i, g, w)
		}
	}
}

// TestRNGMatchesMathRand drives every RNG method on a lazily seeded RNG and
// on one running math/rand's source, in a mixed pattern long enough to cross
// the 273-, 334- and 607-draw boundaries, and requires identical results.
func TestRNGMatchesMathRand(t *testing.T) {
	weights := []float64{0.5, 0, 2, math.Inf(1), 1.5}
	for _, seed := range diffSeeds {
		got, want := New(seed), refRNG(seed)
		for step := 0; step < 400; step++ {
			var g, w any
			switch step % 12 {
			case 0:
				g, w = got.Float64(), want.Float64()
			case 1:
				g, w = got.Intn(7), want.Intn(7)
			case 2:
				g, w = got.Intn(1<<40), want.Intn(1<<40)
			case 3:
				g, w = got.Int63(), want.Int63()
			case 4:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 5:
				g, w = got.Perm(9), want.Perm(9)
			case 6:
				a, b := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
				got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				g, w = a, b
			case 7:
				g, w = got.Gamma(0.4), want.Gamma(0.4)
			case 8:
				g, w = got.Gamma(2.5), want.Gamma(2.5)
			case 9:
				g, w = got.Dirichlet(0.3, 4), want.Dirichlet(0.3, 4)
			case 10:
				g, w = got.WeightedChoice(weights), want.WeightedChoice(weights)
			case 11:
				g, w = got.SampleWithoutReplacement(12, 3), want.SampleWithoutReplacement(12, 3)
			}
			if !equalDraw(g, w) {
				t.Fatalf("seed %d, step %d: got %v, math/rand %v", seed, step, g, w)
			}
		}
		if got.src.vec == nil {
			t.Fatalf("seed %d: the mixed pattern never left the lazy phase", seed)
		}
	}
}

// equalDraw compares draw results bit for bit.
func equalDraw(g, w any) bool {
	switch g := g.(type) {
	case float64:
		return math.Float64bits(g) == math.Float64bits(w.(float64))
	case []float64:
		w := w.([]float64)
		if len(g) != len(w) {
			return false
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return false
			}
		}
		return true
	case []int:
		w := w.([]int)
		if len(g) != len(w) {
			return false
		}
		for i := range g {
			if g[i] != w[i] {
				return false
			}
		}
		return true
	default:
		return g == w
	}
}

// BenchmarkSplitIndexDraw3 is the fault model's per-link pattern: one keyed
// split and three Float64 draws.
func BenchmarkSplitIndexDraw3(b *testing.B) {
	root := New(42)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r := root.SplitIndex("deliver", i)
		r.Float64()
		r.Float64()
		r.Float64()
	}
}
