package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the set of percentiles a tail latency is reported at. The
// steps are a decade apart so that a run measuring a few more or fewer units
// than the last one still lands on the same percentile, and stop at p99:
// beyond it, on a shared machine, the figure measures CPU steal rather than
// the program.
var tailLadder = []float64{90, 99}

// tailPercentile picks the highest percentile of tailLadder that still has at
// least minBeyond of n samples above it, and returns it with that count. It
// falls back to the median when n is too small for any ladder step.
func tailPercentile(n, minBeyond int) (pct float64, beyond int) {
	pct, beyond = 50, n/2
	for _, p := range tailLadder {
		b := int(math.Floor(float64(n)*(100-p)/100 + 1e-9)) // 1e-9: 100-99.9 is not exact
		if b < minBeyond {
			break
		}
		pct, beyond = p, b
	}
	return pct, beyond
}

// cpuTime returns the CPU time the process has used on all its threads.
// Unlike wall-clock time it leaves out time a hypervisor steals from a
// shared virtual machine, so timings taken in it stay comparable between
// runs when neighbours' load changes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

// unionLength returns the total length of the union of ivs clipped to
// within: overlapping children (walks of concurrently running clients) are
// counted once.
func unionLength(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		if open && iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		if open {
			total += cur.end - cur.start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the union of its children's intervals.
func selfTime(span interval, children []interval) time.Duration {
	return span.end - span.start - unionLength(span, children)
}

// liveHeapMetric is the heap the last completed GC cycle marked live. It
// moves only at GC boundaries, so sampling it is steadier than sampling
// HeapAlloc, which also counts garbage not yet collected.
const liveHeapMetric = "/gc/heap/live:bytes"

// heapSampler tracks the peak of the live heap. Sample may be called from
// the measuring goroutine between units; Start adds a background poller so
// a GC cycle that ends inside a long unit is not missed.
type heapSampler struct {
	mu     sync.Mutex
	peak   uint64
	sample []metrics.Sample
	stop   chan struct{}
	done   chan struct{}
}

func newHeapSampler() *heapSampler {
	return &heapSampler{sample: []metrics.Sample{{Name: liveHeapMetric}}}
}

// Sample reads the live heap once and folds it into the peak.
func (h *heapSampler) Sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample)
	if h.sample[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// Start polls every period until Stop.
func (h *heapSampler) Start(period time.Duration) {
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.Sample()
			}
		}
	}()
}

// Stop ends the poller, waits for it, and takes a last sample.
func (h *heapSampler) Stop() {
	if h.stop != nil {
		close(h.stop)
		<-h.done
		h.stop = nil
	}
	h.Sample()
}

// Peak returns the highest live heap seen, in bytes.
func (h *heapSampler) Peak() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}
