package main

import (
	"time"

	"github.com/specdag/specdag/internal/faults"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/sim"
	"github.com/specdag/specdag/internal/xrand"
)

// Probes time direct calls into layers the program offers no seam for
// (nn, xrand, faults.Model.Deliver), on the shapes and configs the
// workload itself uses. Their figures are call costs measured here, not
// spans of the running program, and every result is checked.

// probeResult holds per-call medians in microseconds.
type probeResult struct {
	trainUs, trainSamplesPerS, evalUs, scoreBatchUs float64
	splitUs, deliverUs                              float64
}

// medianCallUs runs fn reps times and returns the median call time in µs.
func medianCallUs(reps int, fn func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(times)
}

// probeNN times local training, evaluation and batched scoring of each spec's
// architecture on its first client's data with its SGD config, and reports
// the mean over specs.
func probeNN(r *runner, specs []sim.Spec) (train, samplesPerS, eval, score float64) {
	const trainReps, evalReps, batch = 15, 40, 8
	for _, spec := range specs {
		c := spec.Fed.Clients[0]
		model := nn.New(spec.Arch, xrand.New(r.seed))
		cfg := spec.Local
		cfg.Shuffle = true
		rng := xrand.New(r.seed).Split("probe-train")
		wantBatches := expectedBatches(c.Train.Len(), cfg)
		batches := 0
		t := medianCallUs(trainReps, func() { batches = model.Train(c.Train.X, c.Train.Y, cfg, rng) })
		r.check(batches > 0 && batches == wantBatches, "nn probe %s: Train ran %d batches, want %d", spec.Name, batches, wantBatches)
		train += t
		samplesPerS += float64(trainedSamples(c.Train.Len(), cfg)) / (t / 1e6)

		var acc float64
		eval += medianCallUs(evalReps, func() { _, acc = model.Evaluate(c.Test.X, c.Test.Y) })
		r.check(acc >= 0 && acc <= 1, "nn probe %s: accuracy %v outside [0,1]", spec.Name, acc)

		params := make([][]float64, batch)
		for i := range params {
			params[i] = model.Params()
		}
		var accs []float64
		score += medianCallUs(evalReps, func() { accs = model.AccuracyManyInto(accs[:0], params, c.Test.X, c.Test.Y) })
		for _, a := range accs {
			r.check(a == acc, "nn probe %s: batched accuracy %v differs from Evaluate's %v", spec.Name, a, acc)
		}
	}
	n := float64(len(specs))
	return train / n, samplesPerS / n, eval / n, score / n
}

func expectedBatches(n int, cfg nn.SGDConfig) int {
	per := (n + cfg.BatchSize - 1) / cfg.BatchSize
	if cfg.MaxBatches > 0 && per > cfg.MaxBatches {
		per = cfg.MaxBatches
	}
	return per * cfg.Epochs
}

func trainedSamples(n int, cfg nn.SGDConfig) int {
	per := n
	if cfg.MaxBatches > 0 && cfg.MaxBatches*cfg.BatchSize < n {
		per = cfg.MaxBatches * cfg.BatchSize
	}
	return per * cfg.Epochs
}

// probeSplit times one keyed RNG stream: SplitIndex plus three draws, the
// pattern of a fault model's per-link delivery draw.
func probeSplit(r *runner) float64 {
	const reps = 2000
	root := xrand.New(r.seed)
	i := 0
	ok := true
	us := medianCallUs(reps, func() {
		s := root.SplitIndex("dagbench-probe", i)
		a, b, c := s.Float64(), s.Float64(), s.Float64()
		ok = ok && a >= 0 && a < 1 && b >= 0 && b < 1 && c >= 0 && c < 1
		i++
	})
	r.check(ok, "xrand probe: draw outside [0,1)")
	return us
}

// probeDeliver times faults.Model.Deliver on every canned scenario's
// schedule over the workload's client IDs, one call per observer of a
// publish.
func probeDeliver(r *runner, spec sim.Spec) float64 {
	const horizon, delay, publishes = 12.0, 0.5, 40
	ids := make([]int, len(spec.Fed.Clients))
	for i, c := range spec.Fed.Clients {
		ids[i] = c.ID
	}
	var all []float64
	for _, name := range sim.FaultScenarioNames() {
		cfg, err := sim.FaultScenario(name, horizon, delay)
		if !r.op(err, "fault scenario "+name) {
			continue
		}
		m, err := faults.New(cfg, xrand.New(r.seed), ids, horizon)
		if !r.op(err, "build fault model "+name) {
			continue
		}
		ok := true
		for p := 0; p < publishes; p++ {
			pub := ids[p%len(ids)]
			at := horizon * float64(p) / publishes
			for _, obs := range ids {
				t0 := time.Now()
				d := m.Deliver(p, pub, obs, at)
				all = append(all, float64(time.Since(t0))/float64(time.Microsecond))
				ok = ok && d.VisibleAt >= at+delay && d.Dropped >= 0
			}
		}
		r.check(ok, "faults probe %s: a delivery arrived before its base delay", name)
	}
	return median(all)
}

// runProbes runs every probe for a workload.
func runProbes(r *runner, w workload) probeResult {
	specs := w.specs(r.seed)
	var p probeResult
	p.trainUs, p.trainSamplesPerS, p.evalUs, p.scoreBatchUs = probeNN(r, specs)
	p.splitUs = probeSplit(r)
	p.deliverUs = probeDeliver(r, specs[0])
	return p
}
