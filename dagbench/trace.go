package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// Span names. Every span is recorded by this benchmark around a call into a
// layer's public surface; nothing inside the program is instrumented.
const (
	spanCoreUnit  = "core.unit"             // one Step of a DAG engine
	spanFLRound   = "fl.round"              // one Step of the FedAvg engine
	spanCkptWrite = "core.checkpoint_write" // WriteCheckpoint
	spanResume    = "core.resume"           // ResumeAsyncSimulation
	spanWalk      = "tipselect.walk"        // Selector.SelectTip
	spanScore     = "tipselect.score"       // Evaluator.Accuracy*
	spanSample    = "dag.sample_at_depth"   // Graph.SampleAtDepth
	spanSubmit    = "serve.submit"          // POST /runs round trip
	spanRun       = "serve.run"             // submit .. End frame of one hosted run
	spanDecode    = "wire.decode"           // Reader.ReadFrame
	spanRead      = "wire.read"             // Read on the event-stream body
)

// span is one timed call into a layer. Unit is the ID of the unit (engine
// step or hosted run) the call belongs to; all spans of one unit share it.
type span struct {
	ID, Parent, Unit int64
	Name             string
	Start, End       time.Duration // since the tracer's epoch
	Bytes            int64         // payload size where the layer has one
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	unit  atomic.Int64 // unit currently stepping on the measuring goroutine
	mu    sync.Mutex
	spans []span

	walkSteps atomic.Int64
	walkEvals atomic.Int64
	caches    map[*tipselect.EvalCache]struct{}
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), caches: make(map[*tipselect.EvalCache]struct{})}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginUnit opens a unit span and makes it the parent of the layer calls
// made until endUnit.
func (t *tracer) beginUnit() (id int64, start time.Duration) {
	id = t.newID()
	t.unit.Store(id)
	return id, t.now()
}

func (t *tracer) endUnit(id int64, name string, start time.Duration) {
	t.unit.Store(0)
	t.record(span{ID: id, Unit: id, Name: name, Start: start, End: t.now()})
}

// unitDone clears the current unit after an engine reports completion; the
// Step that only reports it is not a unit.
func (t *tracer) unitDone() {
	if t != nil {
		t.unit.Store(0)
	}
}

// timed records fn as a span under parent.
func (t *tracer) timed(name string, parent, unit int64, fn func()) {
	start := t.now()
	fn()
	t.record(span{ID: t.newID(), Parent: parent, Unit: unit, Name: name, Start: start, End: t.now()})
}

func (t *tracer) noteCache(e tipselect.Evaluator) {
	if c, ok := e.(*tipselect.EvalCache); ok {
		t.mu.Lock()
		t.caches[c] = struct{}{}
		t.mu.Unlock()
	}
}

// timedBytes records fn as a span with a payload size read after fn
// returns.
func (t *tracer) timedBytes(name string, parent, unit int64, fn func(), size func() int64) {
	start := t.now()
	fn()
	s := span{ID: t.newID(), Parent: parent, Unit: unit, Name: name, Start: start, End: t.now()}
	if size != nil {
		s.Bytes = size()
	}
	t.record(s)
}

// cacheCounts sums hits and misses over every evaluation cache the traced
// walks were handed.
func (t *tracer) cacheCounts() (hits, misses int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := range t.caches {
		hits += c.Hits()
		misses += c.Misses()
	}
	return hits, misses
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as one tab-separated line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tunit\tname\tstart_ns\tend_ns\tbytes")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Unit, s.Name, s.Start, s.End, s.Bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSelector wraps the Selector an engine is configured with. Each walk
// becomes a span, and the Graph and Evaluator the engine hands the walk are
// wrapped in turn so that depth sampling and scoring become its children.
type tracedSelector struct {
	inner tipselect.Selector
	tr    *tracer
}

func (s tracedSelector) Name() string { return s.inner.Name() }

func (s tracedSelector) SelectTip(d tipselect.Graph, eval tipselect.Evaluator, rng *xrand.RNG) (*dag.Transaction, tipselect.WalkStats) {
	unit := s.tr.unit.Load()
	id := s.tr.newID()
	start := s.tr.now()
	s.tr.noteCache(eval)
	tx, st := s.inner.SelectTip(tracedGraph{d, s.tr, id, unit}, wrapEvaluator(eval, s.tr, id, unit), rng)
	s.tr.record(span{ID: id, Parent: unit, Unit: unit, Name: spanWalk, Start: start, End: s.tr.now()})
	s.tr.walkSteps.Add(int64(st.Steps))
	s.tr.walkEvals.Add(int64(st.Evaluations))
	return tx, st
}

// tracedGraph times SampleAtDepth, the only Graph call with real work; the
// other methods pass through the embedded interface. Graph has no optional
// extensions, so embedding exposes exactly what the wrapped value does.
type tracedGraph struct {
	tipselect.Graph
	tr           *tracer
	parent, unit int64
}

func (g tracedGraph) SampleAtDepth(rng *xrand.RNG, minDepth, maxDepth int) (tx *dag.Transaction) {
	g.tr.timed(spanSample, g.parent, g.unit, func() { tx = g.Graph.SampleAtDepth(rng, minDepth, maxDepth) })
	return tx
}

// The evaluator wrappers come in one type per combination of the optional
// interfaces the accuracy walk probes for (BatchEvaluator,
// BatchIntoEvaluator, WeightsMemo). wrapEvaluator picks the one matching the
// wrapped value, so a traced walk takes the same code path as an untraced one.
type tracedEval struct {
	inner        tipselect.Evaluator
	tr           *tracer
	parent, unit int64
}

func (e *tracedEval) Accuracy(tx *dag.Transaction) (acc float64) {
	e.tr.timed(spanScore, e.parent, e.unit, func() { acc = e.inner.Accuracy(tx) })
	return acc
}

type tracedBatch struct{ *tracedEval }

func (e tracedBatch) AccuracyMany(txs []*dag.Transaction) (accs []float64) {
	e.tr.timed(spanScore, e.parent, e.unit, func() { accs = e.inner.(tipselect.BatchEvaluator).AccuracyMany(txs) })
	return accs
}

type tracedBatchInto struct{ tracedBatch }

func (e tracedBatchInto) AccuracyManyInto(dst []float64, txs []*dag.Transaction) (accs []float64) {
	e.tr.timed(spanScore, e.parent, e.unit, func() {
		accs = e.inner.(tipselect.BatchIntoEvaluator).AccuracyManyInto(dst, txs)
	})
	return accs
}

// memo forwards StepWeights untimed: a memo hit is part of the walk's own
// time, and a miss runs compute, whose scoring calls reach the wrapped
// evaluator and are timed there.
type memo struct{ m tipselect.WeightsMemo }

func (m memo) StepWeights(id dag.ID, n int, alpha float64, norm tipselect.Normalization, compute func() []float64) []float64 {
	return m.m.StepWeights(id, n, alpha, norm, compute)
}

type (
	tracedMemo struct {
		*tracedEval
		memo
	}
	tracedBatchMemo struct {
		tracedBatch
		memo
	}
	tracedBatchIntoMemo struct {
		tracedBatchInto
		memo
	}
)

func wrapEvaluator(inner tipselect.Evaluator, tr *tracer, parent, unit int64) tipselect.Evaluator {
	base := &tracedEval{inner: inner, tr: tr, parent: parent, unit: unit}
	_, batch := inner.(tipselect.BatchEvaluator)
	_, into := inner.(tipselect.BatchIntoEvaluator)
	wm, isMemo := inner.(tipselect.WeightsMemo)
	switch {
	case into && isMemo:
		return tracedBatchIntoMemo{tracedBatchInto{tracedBatch{base}}, memo{wm}}
	case into:
		return tracedBatchInto{tracedBatch{base}}
	case batch && isMemo:
		return tracedBatchMemo{tracedBatch{base}, memo{wm}}
	case batch:
		return tracedBatch{base}
	case isMemo:
		return tracedMemo{base, memo{wm}}
	default:
		return base
	}
}

// selectorFor returns sel wrapped for tracing, or sel itself when untraced.
func selectorFor(sel tipselect.Selector, tr *tracer) tipselect.Selector {
	if tr == nil {
		return sel
	}
	return tracedSelector{inner: sel, tr: tr}
}
