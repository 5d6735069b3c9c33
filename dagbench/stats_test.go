package main

import (
	"runtime"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n          int
		pct        float64
		wantBeyond int
	}{
		{n: 5, pct: 50, wantBeyond: 2},       // too few for p90: fall back to the median
		{n: 99, pct: 50, wantBeyond: 49},     // p90 would leave 9
		{n: 100, pct: 90, wantBeyond: 10},    // exactly 10 beyond p90
		{n: 999, pct: 90, wantBeyond: 99},    // p99 would leave 9
		{n: 1000, pct: 99, wantBeyond: 10},   // exactly 10 beyond p99
		{n: 12000, pct: 99, wantBeyond: 120}, // the ladder stops at p99
	}
	for _, c := range cases {
		pct, beyond := tailPercentile(c.n, 10)
		if pct != c.pct || beyond != c.wantBeyond {
			t.Errorf("tailPercentile(%d, 10) = p%g with %d beyond, want p%g with %d", c.n, pct, beyond, c.pct, c.wantBeyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func iv(start, end int) interval {
	return interval{time.Duration(start), time.Duration(end)}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	cases := []struct {
		name     string
		span     interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(0, 100), nil, 100},
		{"disjoint children", iv(0, 100), []interval{iv(10, 20), iv(30, 50)}, 70},
		// Two walks of concurrently running clients overlap in [20, 30):
		// that part is busy once, not twice.
		{"overlapping children", iv(0, 100), []interval{iv(10, 30), iv(20, 40)}, 70},
		{"nested children", iv(0, 100), []interval{iv(10, 60), iv(20, 30)}, 50},
		{"touching children", iv(0, 100), []interval{iv(10, 20), iv(20, 30)}, 80},
		{"children past the span are clipped", iv(10, 100), []interval{iv(0, 20), iv(90, 120)}, 70},
		{"child outside the span", iv(0, 100), []interval{iv(200, 300)}, 100},
		{"children cover the span", iv(0, 100), []interval{iv(0, 60), iv(50, 100)}, 0},
		{"unsorted children", iv(0, 100), []interval{iv(70, 80), iv(10, 20), iv(15, 25)}, 75},
	}
	for _, c := range cases {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

var retained []byte

func TestHeapSamplerKeepsPeak(t *testing.T) {
	const size = 32 << 20
	h := newHeapSampler()
	runtime.GC()
	h.Sample()
	base := h.Peak()

	retained = make([]byte, size)
	for i := range retained {
		retained[i] = byte(i)
	}
	runtime.GC() // the live-heap reading moves at GC boundaries
	h.Sample()
	if got := h.Peak(); got < base+size/2 {
		t.Fatalf("peak %d after retaining %d bytes, base %d", got, size, base)
	}
	peak := h.Peak()

	retained = nil
	runtime.GC()
	h.Sample()
	if got := h.Peak(); got != peak {
		t.Errorf("peak moved from %d to %d after the heap shrank", peak, got)
	}
}

func TestHeapSamplerPollsInBackground(t *testing.T) {
	const size = 32 << 20
	h := newHeapSampler()
	h.Start(time.Millisecond)
	retained = make([]byte, size)
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	// Drop the allocation before Stop's final sample: only the poller can
	// have seen it.
	retained = nil
	runtime.GC()
	start := time.Now()
	h.Stop()
	if time.Since(start) > time.Second {
		t.Errorf("Stop took %v", time.Since(start))
	}
	if got := h.Peak(); got < size {
		t.Errorf("poller missed a live heap of at least %d bytes: peak %d", size, got)
	}
}
