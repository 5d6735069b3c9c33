package xrand

// source is math/rand's additive lagged Fibonacci generator (the Source
// behind rand.NewSource), with the same seed producing the same stream bit
// for bit, but seeded lazily.
//
// math/rand seeds by running its LCG x ← 48271·x mod (2³¹−1) about 1,840
// steps to fill a 607-word register, which costs far more than the handful
// of draws most keyed streams here ever make. Here state word i is built
// only when first read, by LCG jump-ahead: with x_k = 48271^k·x_0 mod
// (2³¹−1), word i is x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^
// rngCooked[i]. Draw n (1-based) adds the words at feed = 334−n and
// tap = 607−n and writes the sum back at feed, so the first 273 draws read
// only words that were never written: they are computed on the fly and the
// register is materialized only when a stream draws a 274th value.
type source struct {
	x0   uint64         // normalized seed: the LCG's starting value
	n    int            // values drawn while vec is nil
	vec  *[rngLen]int64 // feedback register; nil for the first rngTap draws
	tap  int            // index into vec, as in math/rand
	feed int            // index into vec, as in math/rand
}

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // feed's starting index
	rngMask = 1<<63 - 1

	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgSkip = 20                     // LCG steps math/rand discards before word 0
	lcgLen  = lcgSkip + 3*rngLen + 1 // x_0 … x_{23+3·606}
)

// lcgPow[k] is 48271^k mod (2³¹−1), the seeding LCG's k-step multiplier.
var lcgPow = func() (p [lcgLen]uint64) {
	p[0] = 1
	for k := 1; k < lcgLen; k++ {
		p[k] = mulMod(p[k-1], lcgMul)
	}
	return p
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1, folding the Mersenne
// modulus instead of dividing.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x>>31 + x&lcgMod
	if x >= lcgMod {
		x -= lcgMod
	}
	return x
}

// Seed normalizes seed exactly as math/rand does and resets the stream.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = source{x0: uint64(seed)}
}

// word returns the seeded (never written) value of state word i.
func (s *source) word(i int) int64 {
	k := lcgSkip + 1 + 3*i
	u := mulMod(lcgPow[k], s.x0)<<40 ^ mulMod(lcgPow[k+1], s.x0)<<20 ^ mulMod(lcgPow[k+2], s.x0)
	return int64(u) ^ rngCooked[i]
}

// materialize builds the register as math/rand's Seed leaves it, then
// replays the writes of the rngTap draws already served.
func (s *source) materialize() {
	v := new([rngLen]int64)
	x := mulMod(lcgPow[lcgSkip], s.x0)
	for i := range v {
		x = mulMod(x, lcgMul)
		u := x << 40
		x = mulMod(x, lcgMul)
		u ^= x << 20
		x = mulMod(x, lcgMul)
		u ^= x
		v[i] = int64(u) ^ rngCooked[i]
	}
	for n := 1; n <= s.n; n++ {
		v[rngFeed-n] += v[rngLen-n]
	}
	s.vec, s.tap, s.feed = v, rngLen-s.n, rngFeed-s.n
}

// Uint64 returns the next 64-bit value of math/rand's stream.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		if s.n < rngTap {
			s.n++
			return uint64(s.word(rngFeed-s.n) + s.word(rngLen-s.n))
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit value of math/rand's stream.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
