package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/metrics"
	"github.com/specdag/specdag/internal/sim"
)

// runner accumulates the measurements and checks of one timed loop (the
// untraced loop, or the traced one).
type runner struct {
	ctx     context.Context
	seed    int64
	workers int
	tr      *tracer // nil when untraced
	heap    *heapSampler
	golden  map[string]string // gated strings, only at the gate seed

	mu                sync.Mutex // guards the operation counts: daemon clients check concurrently
	attempted, failed int
	failures          []string

	passes       int
	warm         bool      // a set-up has run: later ones are timed warm
	setupS       []float64 // wall
	setupCPU     []float64 // process CPU
	genMs        []float64
	stepMs       []float64 // wall
	stepCPUMs    []float64 // process CPU
	firstEventMs []float64 // this pass's runs
	firstEvent   []float64 // per pass: mean time to the first event of its runs
	activations  int
	runWall      time.Duration // sum of unit times
	runCPU       time.Duration
	// Throughput is taken per segment of identical work (a pass, or a fixed
	// number of units) and reported as the median over segments.
	segAct          int
	segWall, segCPU time.Duration
	rates, cpuRates []float64

	// From the first pass only, which is a pure function of the seed.
	quality      [][2]float64 // per DAG run: median and IQR across clients
	gated        map[string]string
	counts       map[string]float64
	firstPassEnd firstPassMark

	fingerprints []string // one per pass
	finalDAG     *dag.DAG // first traced long-haul tangle, for the depth-sampling probe
}

// firstPassMark snapshots the tracer when the first pass ends, so program
// counts come from exactly one pass whatever the run length.
type firstPassMark struct {
	spans               int
	walkSteps, walkEval int64
	hits, misses        int
}

func newRunner(ctx context.Context, seed int64, workers int, tr *tracer, golden map[string]string) *runner {
	return &runner{
		ctx: ctx, seed: seed, workers: workers, tr: tr, heap: newHeapSampler(), golden: golden,
		gated: map[string]string{}, counts: map[string]float64{},
	}
}

// check counts one correctness check as an operation, failed unless ok.
func (r *runner) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// op counts one operation (a unit, a run or a request) that failed if err
// is non-nil.
func (r *runner) op(err error, what string) bool {
	return r.check(err == nil, "%s: %v", what, err)
}

func (r *runner) first() bool { return r.passes == 0 }

// subSeeds is how many input seeds the passes of a run cycle through: pass
// k runs on passSeed(k), which is the run's own seed for k = 0. Timings are
// taken over all passes, so they average over several inputs and a run's
// figures depend less on the one seed it was given; quality figures and
// gated strings come from pass 0 alone.
const subSeeds = 4

func (r *runner) passSeed() int64 {
	return r.seed + int64(r.passes%subSeeds)*1_000_003
}

// timedSetup times one set-up, starting from a collected heap so that
// garbage left by the previous pass does not bill its collection to set-up.
// The loop's first set-up is built twice and only the second is timed: the
// first pays the process's one-off heap growth.
func (r *runner) timedSetup(build func() error) error {
	if !r.warm {
		r.warm = true
		if err := build(); err != nil {
			return err
		}
	}
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	err := build()
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	r.setupCPU = append(r.setupCPU, (cpuTime() - c0).Seconds())
	return err
}

// gen times a federation generation (the dataset layer).
func (r *runner) gen(build func() sim.Spec) sim.Spec {
	t0 := time.Now()
	s := build()
	r.genMs = append(r.genMs, ms(time.Since(t0)))
	return s
}

// addWork accounts activations completed in wall time d using cpu of
// process CPU time.
func (r *runner) addWork(activations int, d, cpu time.Duration) {
	r.activations += activations
	r.runWall += d
	r.runCPU += cpu
	r.segAct += activations
	r.segWall += d
	r.segCPU += cpu
}

// closeSegment ends a throughput segment.
func (r *runner) closeSegment() {
	if r.segWall > 0 && r.segCPU > 0 {
		r.rates = append(r.rates, float64(r.segAct)/r.segWall.Seconds())
		r.cpuRates = append(r.cpuRates, float64(r.segAct)/r.segCPU.Seconds())
	}
	r.segAct, r.segWall, r.segCPU = 0, 0, 0
}

// endPass closes one deterministic pass: its fingerprint must equal that of
// the last pass on the same input, and the first pass's end marks where
// one-pass counts stop.
func (r *runner) endPass(fp string) {
	r.closeSegment()
	if len(r.firstEventMs) > 0 {
		m := 0.0
		for _, v := range r.firstEventMs {
			m += v / float64(len(r.firstEventMs))
		}
		r.firstEvent = append(r.firstEvent, m)
		r.firstEventMs = r.firstEventMs[:0]
	}
	r.fingerprints = append(r.fingerprints, fp)
	if r.passes >= subSeeds {
		r.check(fp == r.fingerprints[r.passes-subSeeds], "pass %d output differs from pass %d on the same input", r.passes, r.passes-subSeeds)
	}
	if r.first() && r.tr != nil {
		h, m := r.tr.cacheCounts()
		r.firstPassEnd = firstPassMark{
			spans: len(r.tr.snapshot()), walkSteps: r.tr.walkSteps.Load(), walkEval: r.tr.walkEvals.Load(),
			hits: h, misses: m,
		}
	}
	r.passes++
}

// setGated records one gated metric string of the first pass and, at the
// gate seed, compares it byte for byte with the golden value.
func (r *runner) setGated(name string, v float64) {
	if !r.first() {
		return
	}
	s := benchFormat(v)
	r.gated[name] = s
	if r.golden != nil {
		want, ok := r.golden[name]
		r.check(ok && want == s, "gated %s = %q, golden %q", name, s, want)
	}
}

// unitHook observes one completed unit and returns its client activations.
type unitHook func(res *engine.StepResult, h hash.Hash) int

// drive steps eng to its end. Each Step is one unit: timed, counted as an
// operation and, when traced, recorded as a unit span. after, when non-nil,
// runs at each unit boundary inside the unit's time, the way engine.Run
// writes a due checkpoint.
func (r *runner) drive(eng engine.Engine, spanName string, h hash.Hash, onUnit unitHook, after func(step int) error) error {
	fmt.Fprintf(h, "engine %s\n", eng.Name())
	for step := 0; ; step++ {
		var id int64
		var spanStart time.Duration
		if r.tr != nil {
			id, spanStart = r.tr.beginUnit()
		}
		t0, c0 := time.Now(), cpuTime()
		res, done, err := eng.Step(r.ctx)
		if err == nil && !done && after != nil {
			err = after(step + 1)
		}
		d, cpu := time.Since(t0), cpuTime()-c0
		if r.tr != nil && !done {
			r.tr.endUnit(id, spanName, spanStart)
		}
		if done {
			r.tr.unitDone()
			return nil
		}
		if !r.op(err, eng.Name()+" step") {
			return err
		}
		r.stepMs = append(r.stepMs, ms(d))
		r.stepCPUMs = append(r.stepCPUMs, ms(cpu))
		if step == 0 {
			r.firstEventMs = append(r.firstEventMs, ms(d))
		}
		r.addWork(onUnit(res, h), d, cpu)
		r.heap.Sample()
	}
}

// accTracker folds per-unit accuracies into the fingerprint, checks them, and
// tracks each client's last trained accuracy.
type accTracker struct {
	r       *runner
	last    map[int]float64
	perUnit [][]float64
}

func newAccTracker(r *runner) *accTracker { return &accTracker{r: r, last: map[int]float64{}} }

func (a *accTracker) add(clients []int, accs []float64, h hash.Hash) {
	for i, acc := range accs {
		a.r.check(acc >= 0 && acc <= 1 && !math.IsNaN(acc), "accuracy %v outside [0,1]", acc)
		writeFloat(h, acc)
		if clients != nil {
			a.last[clients[i]] = acc
		}
	}
	a.perUnit = append(a.perUnit, append([]float64(nil), accs...))
}

// syncDAGHook reads a core.Simulation unit.
func (a *accTracker) syncDAGHook(res *engine.StepResult, h hash.Hash) int {
	rr := res.Round.Detail.(*core.RoundResult)
	a.add(rr.Active, rr.TrainedAcc, h)
	return len(rr.Active)
}

// fedAvgHook reads a fl.Federated unit.
func (a *accTracker) fedAvgHook(res *engine.StepResult, h hash.Hash) int {
	rr := res.Round.Detail.(*fl.RoundResult)
	a.add(nil, rr.Accs, h)
	return len(rr.Selected)
}

// asyncHook reads a core.AsyncSimulation unit.
func (a *accTracker) asyncHook(res *engine.StepResult, h hash.Hash) int {
	ev := res.Round.Detail.(*core.AsyncEvent)
	a.add([]int{ev.Client}, []float64{ev.TrainedAcc}, h)
	return 1
}

// lastGroupMedian is the median of the last five-round group, the statistic
// the Fig. 9 gated strings report.
func lastGroupMedian(perRound [][]float64) float64 {
	start := (len(perRound) - 1) / 5 * 5
	var accs []float64
	for _, rr := range perRound[start:] {
		accs = append(accs, rr...)
	}
	return metrics.NewBoxStats(accs).Median
}

// recordQuality stores one DAG run's per-client quality (first pass only).
func (r *runner) recordQuality(last map[int]float64) {
	if !r.first() {
		return
	}
	ids := make([]int, 0, len(last))
	for id := range last {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	accs := make([]float64, len(ids))
	for i, id := range ids {
		accs[i] = last[id]
	}
	b := metrics.NewBoxStats(accs)
	r.check(len(accs) > 0, "DAG run activated no client")
	r.quality = append(r.quality, [2]float64{b.Median, b.Q3 - b.Q1})
}

// count records a one-pass program count.
func (r *runner) count(name string, v float64) {
	if r.first() {
		r.counts[name] += v
	}
}

// hashDAG folds the final tangle's serialization into the fingerprint.
func (r *runner) hashDAG(d *dag.DAG, h hash.Hash) {
	_, err := d.WriteTo(h)
	r.op(err, "serialize final DAG")
}

// dagDigest returns the digest of a tangle's serialization.
func dagDigest(r *runner, d *dag.DAG) string {
	h := newHash()
	r.hashDAG(d, h)
	return sum(h)
}

func newHash() hash.Hash { return sha256.New() }

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func writeFloat(w io.Writer, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.Write(b[:])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// benchFormat renders v exactly as `go test -bench` prints a reported
// metric (testing's prettyPrint without padding), the form the gated
// strings in BENCH_parallel.json are recorded in.
func benchFormat(v float64) string {
	var format string
	switch y := math.Abs(v); {
	case y == 0 || y >= 999.95:
		format = "%.0f"
	case y >= 99.995:
		format = "%.1f"
	case y >= 9.9995:
		format = "%.2f"
	case y >= 0.99995:
		format = "%.3f"
	case y >= 0.099995:
		format = "%.4f"
	case y >= 0.0099995:
		format = "%.5f"
	case y >= 0.00099995:
		format = "%.6f"
	default:
		format = "%.7f"
	}
	return fmt.Sprintf(format, v)
}
