package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/specdag/specdag/internal/xrand"
)

// endToEndMetrics are measured with tracing off. Timings are taken both in
// wall-clock time and in process CPU time; BENCHMARK.json tracks the CPU
// ones, which a shared machine's CPU steal does not move (see README).
type endToEndMetrics struct {
	setupS, setupCPUS                          float64
	activationsPerS, activationsPerCPUS        float64
	unitP50, unitTail, unitCPUP50, unitCPUTail float64
	unitCPUP90                                 float64
	firstEvent, peakHeapMB                     float64
	dagMedianAcc, dagAccIQR                    float64
	tailPct, cpuTailPct                        float64
	tailBeyond, cpuTailBeyond                  int
}

func endToEnd(r *runner) endToEndMetrics {
	e := endToEndMetrics{
		setupS:             median(r.setupS),
		setupCPUS:          median(r.setupCPU),
		activationsPerS:    median(r.rates),
		activationsPerCPUS: median(r.cpuRates),
		unitP50:            median(r.stepMs),
		unitCPUP50:         median(r.stepCPUMs),
		firstEvent:         median(r.firstEvent),
		peakHeapMB:         float64(r.heap.Peak()) / (1 << 20),
	}
	e.tailPct, e.tailBeyond = tailPercentile(len(r.stepMs), 10)
	e.unitTail = quantile(r.stepMs, e.tailPct/100)
	e.cpuTailPct, e.cpuTailBeyond = tailPercentile(len(r.stepCPUMs), 10)
	e.unitCPUTail = quantile(r.stepCPUMs, e.cpuTailPct/100)
	e.unitCPUP90 = quantile(r.stepCPUMs, 0.9)
	for _, q := range r.quality {
		e.dagMedianAcc += q[0] / float64(len(r.quality))
		e.dagAccIQR += q[1] / float64(len(r.quality))
	}
	return e
}

// metrics are the ones BENCHMARK.json lists.
func (e endToEndMetrics) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":               {e.setupCPUS, "s"},
		"activations_per_cpu_s": {e.activationsPerCPUS, "1/s"},
		"unit_cpu_p50_ms":       {e.unitCPUP50, "ms"},
		"unit_cpu_p90_ms":       {e.unitCPUP90, "ms"},
		"peak_heap_mb":          {e.peakHeapMB, "MiB"},
		"dag_median_acc":        {e.dagMedianAcc, "fraction"},
	}
}

func printEndToEnd(r *runner, e endToEndMetrics) {
	fmt.Printf("end-to-end (untraced), %d passes, %d activations in %.2f s of units (%.2f s CPU); * = in BENCHMARK.json:\n",
		r.passes, r.activations, r.runWall.Seconds(), r.runCPU.Seconds())
	row := func(json bool, name string, v float64, unit, samples string) {
		star := " "
		if json {
			star = "*"
		}
		fmt.Printf(" %s %-22s %14.4f %-9s %s\n", star, name, v, unit, samples)
	}
	row(true, "setup_s", e.setupCPUS, "s", fmt.Sprintf("CPU, median of %d set-ups", len(r.setupCPU)))
	row(false, "setup_wall_s", e.setupS, "s", fmt.Sprintf("wall, median of %d set-ups", len(r.setupS)))
	row(true, "activations_per_cpu_s", e.activationsPerCPUS, "1/s", fmt.Sprintf("median of %d segments, %d activations", len(r.cpuRates), r.activations))
	row(false, "activations_per_s", e.activationsPerS, "1/s", fmt.Sprintf("wall, median of %d segments", len(r.rates)))
	row(true, "unit_cpu_p50_ms", e.unitCPUP50, "ms", fmt.Sprintf("%d samples", len(r.stepCPUMs)))
	row(true, "unit_cpu_p90_ms", e.unitCPUP90, "ms", fmt.Sprintf("%d samples", len(r.stepCPUMs)))
	row(false, "unit_cpu_tail_ms", e.unitCPUTail, "ms", fmt.Sprintf("p%g of %d samples, %d beyond", e.cpuTailPct, len(r.stepCPUMs), e.cpuTailBeyond))
	row(false, "unit_p50_ms", e.unitP50, "ms", fmt.Sprintf("wall, %d samples", len(r.stepMs)))
	row(false, "unit_tail_ms", e.unitTail, "ms", fmt.Sprintf("wall, p%g of %d samples, %d beyond", e.tailPct, len(r.stepMs), e.tailBeyond))
	row(false, "first_event_ms", e.firstEvent, "ms", fmt.Sprintf("wall, median over %d passes of their runs' mean", len(r.firstEvent)))
	row(true, "peak_heap_mb", e.peakHeapMB, "MiB", "peak of "+liveHeapMetric)
	row(true, "dag_median_acc", e.dagMedianAcc, "fraction", fmt.Sprintf("mean over %d DAG runs", len(r.quality)))
	row(false, "dag_acc_iqr", e.dagAccIQR, "fraction", fmt.Sprintf("mean over %d DAG runs", len(r.quality)))
	names := make([]string, 0, len(r.gated))
	for k := range r.gated {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   gated %-32s %s\n", k, r.gated[k])
	}
	fmt.Printf("operations: %d attempted, %d failed\n", r.attempted, r.failed)
}

// layerMetric is one per-layer figure. Kind says where it comes from: a
// span recorded around a call into the layer, a probe (a direct call made
// by this benchmark, not by the program), or a count the program reports.
// Only inJSON metrics are listed in BENCHMARK.json; the absolute span times
// stay in the printed report because a layer a workload bypasses has none.
type layerMetric struct {
	name, unit, kind string
	value            float64
	inJSON           bool
}

type spanAgg struct {
	n           int
	total, self time.Duration
	firstPassN  int
}

func perLayer(w workload, t, plain *runner, p probeResult) []layerMetric {
	spans := t.tr.snapshot()
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	agg := map[string]*spanAgg{}
	var root time.Duration
	for i, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanAgg{}
			agg[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += selfTime(s.interval(), children[s.ID])
		if i < t.firstPassEnd.spans {
			a.firstPassN++
		}
		if s.Parent == 0 {
			root += s.End - s.Start
		}
	}
	get := func(name string) *spanAgg {
		if a := agg[name]; a != nil {
			return a
		}
		return &spanAgg{}
	}
	pct := func(d time.Duration) float64 {
		if root == 0 {
			return 0
		}
		return 100 * float64(d) / float64(root)
	}
	perCall := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / float64(unit)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := t.counts
	fp := t.firstPassEnd
	unitA, flA, walkA, scoreA := get(spanCoreUnit), get(spanFLRound), get(spanWalk), get(spanScore)
	sampleA, ckptA, resumeA := get(spanSample), get(spanCkptWrite), get(spanResume)
	submitA, runA, decodeA, readA := get(spanSubmit), get(spanRun), get(spanDecode), get(spanRead)
	overhead := ratio(median(t.cpuRates), median(plain.cpuRates))

	if len(t.genMs) == 0 {
		// The daemon generates its federations inside POST /runs; time the
		// same generation directly.
		t0 := time.Now()
		specs := w.specs(t.seed)
		t.genMs = append(t.genMs, ms(time.Since(t0))/float64(len(specs)))
	}

	out := []layerMetric{
		{"core.units", "count", "count", c["core.units"], true},
		{"core.unit_self_pct", "%", "span", pct(unitA.self), true},
		{"core.unit_self_ms", "ms", "span", perCall(unitA.self, unitA.n, time.Millisecond), false},
		{"core.checkpoint_write_pct", "%", "span", pct(ckptA.total), true},
		{"core.checkpoint_write_ms", "ms", "span", perCall(ckptA.total, ckptA.n, time.Millisecond), false},
		{"core.checkpoint_bytes", "bytes", "count", ratio(c["core.checkpoint_bytes_total"], c["core.checkpoints"]), true},
		{"core.resume_pct", "%", "span", pct(resumeA.total), true},
		{"core.resume_ms", "ms", "span", perCall(resumeA.total, resumeA.n, time.Millisecond), false},
		{"fl.units", "count", "count", c["fl.units"], true},
		{"fl.round_pct", "%", "span", pct(flA.total), true},
		{"fl.round_ms", "ms", "span", perCall(flA.total, flA.n, time.Millisecond), false},
		{"tipselect.walks", "count", "count", float64(walkA.firstPassN), true},
		{"tipselect.walk_steps", "count", "count", float64(fp.walkSteps), true},
		{"tipselect.evaluations", "count", "count", float64(fp.walkEval), true},
		{"tipselect.walk_pct", "%", "span", pct(walkA.total), true},
		{"tipselect.walk_ms", "ms", "span", perCall(walkA.total, walkA.n, time.Millisecond), false},
		{"tipselect.walk_self_pct", "%", "span", pct(walkA.self), true},
		{"tipselect.walk_self_ms", "ms", "span", perCall(walkA.self, walkA.n, time.Millisecond), false},
		{"tipselect.score_calls", "count", "count", float64(scoreA.firstPassN), true},
		{"tipselect.score_pct", "%", "span", pct(scoreA.total), true},
		{"tipselect.score_ms", "ms", "span", perCall(scoreA.total, scoreA.n, time.Millisecond), false},
		{"tipselect.cache_hit_ratio", "ratio", "count", ratio(float64(fp.hits), float64(fp.hits+fp.misses)), true},
		{"dag.sample_at_depth_calls", "count", "count", float64(sampleA.firstPassN), true},
		{"dag.sample_at_depth_pct", "%", "span", pct(sampleA.total), true},
		{"dag.sample_at_depth_ms", "ms", "span", perCall(sampleA.total, sampleA.n, time.Millisecond), false},
		{"dag.txs", "count", "count", c["dag.txs"], true},
		{"dag.live_txs", "count", "count", c["dag.live_txs"], true},
		{"dag.frozen_epochs", "count", "count", c["dag.frozen_epochs"], true},
		{"dag.spill_bytes", "bytes", "count", c["dag.spill_bytes"], true},
		{"nn.train_call_us", "us", "probe", p.trainUs, true},
		{"nn.train_samples_per_s", "1/s", "probe", p.trainSamplesPerS, true},
		{"nn.eval_call_us", "us", "probe", p.evalUs, true},
		{"nn.score_batch_us", "us", "probe", p.scoreBatchUs, true},
		{"xrand.split_us", "us", "probe", p.splitUs, true},
		{"faults.deliveries", "count", "count", c["faults.deliveries"], true},
		{"faults.dropped", "count", "count", c["faults.dropped"], true},
		{"faults.duplicated", "count", "count", c["faults.duplicated"], true},
		{"faults.deliver_us", "us", "probe", p.deliverUs, true},
		{"dataset.gen_ms", "ms", "span", median(t.genMs), true},
		{"serve.submit_pct", "%", "span", pct(submitA.total), true},
		{"serve.submit_ms", "ms", "span", perCall(submitA.total, submitA.n, time.Millisecond), false},
		{"serve.runs_settled", "count", "count", c["serve.runs_settled"], true},
		{"wire.frames", "count", "count", c["wire.frames"], true},
		{"wire.frame_bytes", "bytes", "count", ratio(c["wire.frame_bytes_total"], c["wire.frames"]), true},
		{"wire.decode_pct", "%", "span", pct(decodeA.self), true},
		{"wire.decode_us", "us", "span", perCall(decodeA.self, decodeA.n, time.Microsecond), false},
		{"wire.read_wait_pct", "%", "span", pct(readA.total), true},
		{"wire.read_wait_ms", "ms", "span", perCall(readA.total, runA.n, time.Millisecond), false},
		{"trace.overhead", "ratio", "span", overhead, true},
	}
	if t.finalDAG != nil {
		out = append(out, layerMetric{"dag.probe_sample_at_depth_us", "us", "probe", probeDepth(t), false})
	}
	return out
}

// probeDepth times SampleAtDepth on the long-haul run's final tangle with
// the preset's 15-25 band: compaction rejects a wrapped selector, so the
// in-program calls cannot be traced from outside.
func probeDepth(r *runner) float64 {
	rng := xrand.New(r.seed).Split("probe-depth")
	ok := true
	us := medianCallUs(40, func() { ok = ok && r.finalDAG.SampleAtDepth(rng, 15, 25) != nil })
	r.check(ok, "depth probe: SampleAtDepth returned nil")
	return us
}

func printLayers(w workload, layers []layerMetric) {
	fmt.Printf("per-layer (traced), workload %s; [probe] = direct call by the benchmark, [span] = timed call into the layer, [count] = program count over one pass; * = in BENCHMARK.json:\n", w.name)
	for _, l := range layers {
		star := " "
		if l.inJSON {
			star = "*"
		}
		fmt.Printf(" %s %-30s %16.4f %-6s [%s]\n", star, l.name, l.value, l.unit, l.kind)
	}
}

// loadGolden reads the gated metric strings recorded in BENCH_parallel.json.
func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Check struct {
			Metrics map[string]string `json:"metrics"`
		} `json:"metric_invariance_check"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Check.Metrics) == 0 {
		return nil, fmt.Errorf("%s: no gated metrics", path)
	}
	return f.Check.Metrics, nil
}
