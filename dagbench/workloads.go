package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/sim"
)

// workload is one set of inputs the benchmark runs. pass runs one complete,
// deterministic repetition of it; the timed loop repeats passes until the
// measuring time is spent. specs lists the federations the nn probes use.
type workload struct {
	name  string
	why   string
	pass  func(r *runner) error
	specs func(seed int64) []sim.Spec
}

var workloads = []workload{
	{
		name:  "paper-sync",
		why:   "Fig. 9 at Quick scale: sync DAG vs FedAvg on three datasets; SGD and evaluation dominate",
		pass:  paperSyncPass,
		specs: paperSyncSpecs,
	},
	{
		name:  "faults-async",
		why:   "three canned fault scenarios on the async engine; keyed RNG streams and per-link delivery dominate",
		pass:  faultsAsyncPass,
		specs: func(seed int64) []sim.Spec { return []sim.Spec{sim.FMNISTSpec(sim.Quick, seed)} },
	},
	{
		name:  "longhaul-compact",
		why:   "long-haul preset with epoch compaction, spill, checkpoints and a resume; depth sampling and memory dominate",
		pass:  longhaulPass,
		specs: func(seed int64) []sim.Spec { return []sim.Spec{sim.LongHaulSpec(seed)} },
	},
	{
		name:  "daemon-stream",
		why:   "in-process daemon on loopback, two closed-loop clients streaming SDE1; the only path through serve and wire",
		pass:  daemonPass,
		specs: func(seed int64) []sim.Spec { return []sim.Spec{sim.FMNISTSpec(sim.Quick, seed)} },
	},
}

func paperSyncSpecs(seed int64) []sim.Spec {
	return []sim.Spec{sim.FMNISTSpec(sim.Quick, seed), sim.PoetsSpec(sim.Quick, seed+1), sim.CIFARSpec(sim.Quick, seed+2)}
}

// paperSyncPass is sim.Figure9 with every engine stepped here, one after
// another, instead of as cells of a concurrent grid: the seeds and configs
// are Figure9's, so at the gate seed the medians must equal its gated
// strings.
func paperSyncPass(r *runner) error {
	seed := r.passSeed()
	var specs []sim.Spec
	var feds []*fl.Federated
	var dags []*core.Simulation
	err := r.timedSetup(func() error {
		specs = []sim.Spec{
			r.gen(func() sim.Spec { return sim.FMNISTSpec(sim.Quick, seed) }),
			r.gen(func() sim.Spec { return sim.PoetsSpec(sim.Quick, seed+1) }),
			r.gen(func() sim.Spec { return sim.CIFARSpec(sim.Quick, seed+2) }),
		}
		feds = make([]*fl.Federated, len(specs))
		dags = make([]*core.Simulation, len(specs))
		for i, spec := range specs {
			var err error
			feds[i], err = fl.NewFederated(spec.Fed, spec.FLConfig(sim.Quick, 0, seed+int64(20+i)))
			if !r.op(err, "build FedAvg "+spec.Name) {
				return err
			}
			dags[i], err = core.NewSimulation(spec.Fed, spec.DAGConfig(sim.Quick, selectorFor(spec.Selector, r.tr), seed+int64(30+i)))
			if !r.op(err, "build DAG "+spec.Name) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	h := newHash()
	for i, spec := range specs {
		fa := newAccTracker(r)
		if err := r.drive(feds[i], spanFLRound, h, fa.fedAvgHook, nil); err != nil {
			return err
		}
		r.check(len(fa.perUnit) == sim.Quick.Rounds(), "%s FedAvg ran %d of %d rounds", spec.Name, len(fa.perUnit), sim.Quick.Rounds())
		r.setGated(spec.Name+"-fedavg-median", lastGroupMedian(fa.perUnit))
		r.count("fl.units", float64(len(fa.perUnit)))
		for _, p := range feds[i].Result().Final.Params() {
			writeFloat(h, p)
		}

		da := newAccTracker(r)
		if err := r.drive(dags[i], spanCoreUnit, h, da.syncDAGHook, nil); err != nil {
			return err
		}
		r.check(len(da.perUnit) == sim.Quick.Rounds(), "%s DAG ran %d of %d rounds", spec.Name, len(da.perUnit), sim.Quick.Rounds())
		r.setGated(spec.Name+"-dag-median", lastGroupMedian(da.perUnit))
		r.recordQuality(da.last)
		r.count("core.units", float64(len(da.perUnit)))
		r.countDAG(dags[i].DAG())
		r.hashDAG(dags[i].DAG(), h)
	}
	r.endPass(sum(h))
	return nil
}

// faultsAsyncPass is sim.FaultSweep stepped here: same federation, scenario
// configs and seeds, so at the gate seed its first/last/mean accuracies must
// equal the gated fault-* strings.
func faultsAsyncPass(r *runner) error {
	const horizon, delay = 12.0, 0.5
	seed := r.passSeed()
	names := sim.FaultScenarioNames()
	var engines []*core.AsyncSimulation
	err := r.timedSetup(func() error {
		spec := r.gen(func() sim.Spec { return sim.FMNISTSpec(sim.Quick, seed) })
		engines = make([]*core.AsyncSimulation, len(names))
		for i, name := range names {
			fc, err := sim.FaultScenario(name, horizon, delay)
			if !r.op(err, "fault scenario "+name) {
				return err
			}
			cfg := spec.AsyncDAGConfig(horizon, 1, 8, 0, selectorFor(spec.Selector, r.tr), seed+int64(i))
			cfg.Faults = fc
			engines[i], err = core.NewAsyncSimulation(spec.Fed, cfg)
			if !r.op(err, "build async "+name) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	h := newHash()
	for i, name := range names {
		a := engines[i]
		tr := newAccTracker(r)
		if err := r.drive(a, spanCoreUnit, h, tr.asyncHook, nil); err != nil {
			return err
		}
		r.check(len(tr.perUnit) > 0, "fault scenario %s produced no events", name)
		if len(tr.perUnit) == 0 {
			continue
		}
		first, last, total := tr.perUnit[0][0], tr.perUnit[len(tr.perUnit)-1][0], 0.0
		for _, u := range tr.perUnit {
			total += u[0]
		}
		prefix := "fault-" + name + "-"
		r.setGated(prefix+"first-acc", first)
		r.setGated(prefix+"last-acc", last)
		r.setGated(prefix+"mean-acc", total/float64(len(tr.perUnit)))

		res := a.Result()
		r.check(a.Events() == len(tr.perUnit), "%s: engine counted %d events, stepped %d", name, a.Events(), len(tr.perUnit))
		r.recordQuality(asyncLastAccs(res))
		r.count("core.units", float64(len(tr.perUnit)))
		r.count("faults.deliveries", float64(res.Deliveries))
		r.count("faults.dropped", float64(res.DroppedDeliveries))
		r.count("faults.duplicated", float64(res.DuplicatedDeliveries))
		r.countDAG(a.DAG())
		r.hashDAG(a.DAG(), h)
	}
	r.endPass(sum(h))
	return nil
}

func asyncLastAccs(res *core.AsyncResult) map[int]float64 {
	last := map[int]float64{}
	for _, c := range res.Clients {
		if c.Cycles > 0 {
			last[c.ID] = c.FinalAcc
		}
	}
	return last
}

// longhaulCheckpointEvery is the checkpoint cadence of longhaul-compact in
// events, as a long-haul deployment would set engine.WithCheckpoints.
const longhaulCheckpointEvery = 500

// longhaulHorizon shortens the Quick preset's ~130 simulated seconds (6000
// events) to 90 (~4100 events) so that a run holds more than one pass. The
// live suffix first reaches its steady size of ~1700 transactions at ~70 s,
// so every pass still freezes and spills epochs.
const longhaulHorizon = 90.0

// longhaulPass runs the long-haul preset (compaction spilling to a
// temporary directory) with periodic checkpoints, then resumes from the last
// checkpoint and runs the resumed engine to the end.
func longhaulPass(r *runner) error {
	dir, err := os.MkdirTemp(scratchDir, "longhaul-")
	if !r.op(err, "make spill dir") {
		return err
	}
	defer os.RemoveAll(dir)
	spillDir := filepath.Join(dir, "spill")
	ckptPath := filepath.Join(dir, "ckpt.sda")

	// Set-up is repeated so that a pass gives several samples of it and of
	// the time to the first event; the last engine built runs to the end.
	const setups = 5
	seed := r.passSeed()
	var spec sim.Spec
	var acfg core.AsyncConfig
	var a *core.AsyncSimulation
	for i := 0; i < setups; i++ {
		err := r.timedSetup(func() error {
			spec = r.gen(func() sim.Spec { return sim.LongHaulSpec(seed) })
			acfg = sim.LongHaulAsyncConfig(sim.Quick, spillDir, seed)
			acfg.Duration = longhaulHorizon
			// The selector stays unwrapped even when traced: compaction
			// derives its freeze guard from the concrete selector type and
			// rejects any other, so this workload's walks have no seam to
			// trace from outside.
			var err error
			a, err = core.NewAsyncSimulation(spec.Fed, acfg)
			r.op(err, "build long-haul engine")
			return err
		})
		if err != nil {
			return err
		}
		if i < setups-1 {
			t0 := time.Now()
			_, _, err := a.Step(r.ctx)
			r.op(err, "first long-haul event")
			r.firstEventMs = append(r.firstEventMs, ms(time.Since(t0)))
		}
	}

	var ckptEvents, ckptSize int
	writeCkpt := func(step int) error {
		if step%longhaulCheckpointEvery != 0 {
			return nil
		}
		var n int64
		var err error
		write := func() { n, err = writeFile(ckptPath, a.WriteCheckpoint) }
		if r.tr != nil {
			unit := r.tr.unit.Load()
			r.tr.timedBytes(spanCkptWrite, unit, unit, write, func() int64 { return n })
		} else {
			write()
		}
		if !r.op(err, "write checkpoint") {
			return err
		}
		ckptEvents, ckptSize = a.Events(), a.DAG().Size()
		r.closeSegment()
		r.count("core.checkpoints", 1)
		r.count("core.checkpoint_bytes_total", float64(n))
		return nil
	}

	h := newHash()
	tr := newAccTracker(r)
	if err := r.drive(a, spanCoreUnit, h, tr.asyncHook, writeCkpt); err != nil {
		return err
	}
	res := a.Result()
	r.recordQuality(asyncLastAccs(res))
	r.count("core.units", float64(len(tr.perUnit)))
	r.countDAG(a.DAG())
	if r.tr != nil && r.first() {
		r.finalDAG = a.DAG()
	}
	r.hashDAG(a.DAG(), h)
	endEvents, endDAG := a.Events(), dagDigest(r, a.DAG())
	r.check(ckptEvents > 0, "long-haul run wrote no checkpoint")
	if ckptEvents == 0 {
		r.endPass(sum(h))
		return nil
	}

	// The read path: resume from the last checkpoint, which must hold exactly
	// the state it was written at, and run the resumed engine to the end.
	var b *core.AsyncSimulation
	resume := func() {
		f, ferr := os.Open(ckptPath)
		if ferr != nil {
			err = ferr
			return
		}
		defer f.Close()
		b, err = core.ResumeAsyncSimulation(spec.Fed, acfg, f)
	}
	if r.tr != nil {
		r.tr.timedBytes(spanResume, 0, 0, resume, nil)
	} else {
		resume()
	}
	if !r.op(err, "resume from checkpoint") {
		return err
	}
	r.check(b.Events() == ckptEvents, "resumed at %d events, checkpoint holds %d", b.Events(), ckptEvents)
	r.check(b.DAG().Size() == ckptSize, "resumed DAG has %d txs, checkpoint holds %d", b.DAG().Size(), ckptSize)
	for {
		_, done, err := b.Step(r.ctx)
		if !r.op(err, "resumed step") {
			return err
		}
		if done {
			break
		}
	}
	r.check(b.Events() == endEvents && dagDigest(r, b.DAG()) == endDAG,
		"resumed run ended at %d events with another DAG than the original's %d events", b.Events(), endEvents)
	r.endPass(sum(h))
	return nil
}

// writeFile streams write's output to path through a buffer, the way a
// deployment writes checkpoints, and returns the bytes written.
func writeFile(path string, write func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	n, err := write(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// countDAG records the dag layer's public getters for one finished run.
func (r *runner) countDAG(d *dag.DAG) {
	r.count("dag.txs", float64(d.Size()))
	r.count("dag.live_txs", float64(d.Size()-int(d.LiveFloor())))
	for _, e := range d.FrozenEpochs() {
		r.count("dag.frozen_epochs", 1)
		r.count("dag.spill_bytes", float64(e.SpillBytes))
	}
}
