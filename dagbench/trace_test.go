package main

import (
	"context"
	"testing"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/xrand"
)

// Evaluators with every combination of the optional interfaces.
type (
	evalPlain     struct{}
	evalBatch     struct{ evalPlain }
	evalInto      struct{ evalBatch }
	evalMemo      struct{ evalPlain }
	evalBatchMemo struct{ evalBatch }
	evalIntoMemo  struct{ evalInto }
)

func (evalPlain) Accuracy(tx *dag.Transaction) float64 { return float64(tx.ID%7) / 7 }

func (e evalBatch) AccuracyMany(txs []*dag.Transaction) []float64 {
	return evalInto{e}.AccuracyManyInto(nil, txs)
}

func (e evalInto) AccuracyManyInto(dst []float64, txs []*dag.Transaction) []float64 {
	for _, tx := range txs {
		dst = append(dst, e.Accuracy(tx))
	}
	return dst
}

type weightsMemo struct{}

func (weightsMemo) StepWeights(_ dag.ID, _ int, _ float64, _ tipselect.Normalization, compute func() []float64) []float64 {
	return compute()
}

func (evalMemo) StepWeights(id dag.ID, n int, a float64, norm tipselect.Normalization, c func() []float64) []float64 {
	return weightsMemo{}.StepWeights(id, n, a, norm, c)
}

func (evalBatchMemo) StepWeights(id dag.ID, n int, a float64, norm tipselect.Normalization, c func() []float64) []float64 {
	return weightsMemo{}.StepWeights(id, n, a, norm, c)
}

func (evalIntoMemo) StepWeights(id dag.ID, n int, a float64, norm tipselect.Normalization, c func() []float64) []float64 {
	return weightsMemo{}.StepWeights(id, n, a, norm, c)
}

func capabilities(e tipselect.Evaluator) (batch, into, memo bool) {
	_, batch = e.(tipselect.BatchEvaluator)
	_, into = e.(tipselect.BatchIntoEvaluator)
	_, memo = e.(tipselect.WeightsMemo)
	return
}

func TestWrappedEvaluatorExposesExactlyTheWrappedInterfaces(t *testing.T) {
	inners := map[string]tipselect.Evaluator{
		"plain":           evalPlain{},
		"batch":           evalBatch{},
		"batch+into":      evalInto{},
		"memo":            evalMemo{},
		"batch+memo":      evalBatchMemo{},
		"batch+into+memo": evalIntoMemo{},
		"EvalCache":       tipselect.NewEvalCache(func([]float64) float64 { return 0.5 }, nil),
	}
	seen := map[[3]bool]bool{}
	tr := newTracer()
	tx := &dag.Transaction{ID: 3}
	for name, inner := range inners {
		wb, wi, wm := capabilities(inner)
		seen[[3]bool{wb, wi, wm}] = true
		wrapped := wrapEvaluator(inner, tr, 1, 1)
		gb, gi, gm := capabilities(wrapped)
		if gb != wb || gi != wi || gm != wm {
			t.Errorf("%s: wrapper exposes batch=%v into=%v memo=%v, wrapped value batch=%v into=%v memo=%v",
				name, gb, gi, gm, wb, wi, wm)
		}
		if got, want := wrapped.Accuracy(tx), inner.Accuracy(tx); got != want {
			t.Errorf("%s: wrapped Accuracy = %v, want %v", name, got, want)
		}
	}
	if len(seen) != 6 {
		t.Errorf("covered %d interface combinations, want all 6", len(seen))
	}
	if n := len(tr.snapshot()); n != len(inners) {
		t.Errorf("recorded %d score spans for %d calls", n, len(inners))
	}
}

// buildTangle returns a small DAG whose walks branch at every step.
func buildTangle(t *testing.T) *dag.DAG {
	t.Helper()
	rng := xrand.New(7)
	d := dag.New(rng.NormalVec(4, 0, 1))
	for round := 0; round < 30; round++ {
		tips := d.Tips()
		for i := 0; i < 3; i++ {
			parents := []dag.ID{tips[rng.Intn(len(tips))], tips[rng.Intn(len(tips))]}
			if _, err := d.Add(i, round, parents, rng.NormalVec(4, 0, 1), dag.Meta{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func TestTracedSelectorWalksLikeTheWrappedOne(t *testing.T) {
	d := buildTangle(t)
	score := func(p []float64) float64 { return (p[0]*p[0] + 1) / (p[0]*p[0] + p[1]*p[1] + 2) }
	batch := func(ps [][]float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = score(p)
		}
		return out
	}
	for _, sel := range []tipselect.Selector{
		tipselect.AccuracyWalk{Alpha: 10},
		tipselect.AccuracyWalk{Alpha: 10, DepthMin: 3, DepthMax: 6},
	} {
		plainCache := tipselect.NewEvalCache(score, batch)
		tracedCache := tipselect.NewEvalCache(score, batch)
		tr := newTracer()
		traced := selectorFor(sel, tr)
		if traced.Name() != sel.Name() {
			t.Errorf("traced name %q, want %q", traced.Name(), sel.Name())
		}
		for walk := 0; walk < 20; walk++ {
			want, wantStats := sel.SelectTip(d, plainCache, xrand.New(int64(walk)))
			got, gotStats := traced.SelectTip(d, tracedCache, xrand.New(int64(walk)))
			if got.ID != want.ID || gotStats != wantStats {
				t.Fatalf("%s walk %d: traced tip %d %+v, untraced %d %+v", sel.Name(), walk, got.ID, gotStats, want.ID, wantStats)
			}
		}
		if plainCache.Hits() != tracedCache.Hits() || plainCache.Misses() != tracedCache.Misses() {
			t.Errorf("%s: cache hits/misses %d/%d traced, %d/%d untraced — the walk took another path",
				sel.Name(), tracedCache.Hits(), tracedCache.Misses(), plainCache.Hits(), plainCache.Misses())
		}
		names := map[string]int{}
		for _, s := range tr.snapshot() {
			names[s.Name]++
		}
		if names[spanWalk] != 20 || names[spanScore] == 0 {
			t.Errorf("%s: spans %v, want 20 walks and some scoring", sel.Name(), names)
		}
		if banded := sel.(tipselect.AccuracyWalk).DepthMax > 0; banded != (names[spanSample] == 20) {
			t.Errorf("%s: %d depth-sampling spans", sel.Name(), names[spanSample])
		}
	}
}

// TestTracedRunReproducesUntracedOutputs runs one pass of the workloads
// whose walks can be traced, with and without tracing, at the gate seed: the
// gated strings, every unit's accuracies and the final DAGs (daemon: every
// streamed unit) must be byte-identical, and the gated strings must equal
// the repository's recorded ones.
func TestTracedRunReproducesUntracedOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full workload passes")
	}
	golden, err := loadGolden("../BENCH_parallel.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper-sync", "faults-async", "daemon-stream"} {
		w, _ := findWorkload(name)
		plain := newRunner(context.Background(), gateSeed, maxWorkers, nil, golden)
		traced := newRunner(context.Background(), gateSeed, maxWorkers, newTracer(), golden)
		for _, r := range []*runner{plain, traced} {
			if err := w.pass(r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.failed != 0 {
				t.Fatalf("%s: %d failed checks: %v", name, r.failed, r.failures)
			}
		}
		if plain.fingerprints[0] != traced.fingerprints[0] {
			t.Errorf("%s: traced outputs differ from untraced", name)
		}
		if len(plain.gated) == 0 && name != "daemon-stream" {
			t.Errorf("%s: no gated strings", name)
		}
		for k, v := range plain.gated {
			if traced.gated[k] != v {
				t.Errorf("%s: gated %s traced %q, untraced %q", name, k, traced.gated[k], v)
			}
		}
		if len(traced.tr.snapshot()) == 0 {
			t.Errorf("%s: traced pass recorded no spans", name)
		}
	}
}
