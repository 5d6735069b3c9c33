package core

// Checkpoint/resume for the event-driven simulation — the async variant of
// the SDC1 checkpoint family (magic "SDA1"). The synchronous codec
// (checkpoint.go) snapshots state between rounds; this one snapshots state
// between events, which is where the asynchronous engine's Step boundary
// lies, so engine.Run's WithCheckpoints option works unchanged.
//
// What must be saved is exactly what one event cannot reconstruct:
//
//   - the event queue: every scheduled-but-unprocessed client activation
//     (time, scheduling sequence number, client index). The heap's pop order
//     is a strict total order (time, then sequence), so the restored queue
//     replays events in exactly the original order.
//   - pending transactions: models that passed the publish gate but whose
//     network propagation delay has not elapsed — they exist nowhere else.
//   - per-client statistics (cycles, publishes, final accuracy), which feed
//     the partial Result history.
//   - the tangle itself, embedded as an SDG1 snapshot like the sync codec.
//   - the processed-event and scheduling counters and the done flag.
//
// What is deliberately NOT saved, because it is a pure function of the
// configuration (and is verified or regenerated on resume):
//
//   - RNG stream positions: all per-event randomness comes from
//     SplitIndex("async-event", seq) — pure seed splits, so the "stream
//     position" of a client is just the next event's sequence number, which
//     the queue already carries. The seed is stored and verified.
//   - per-client cycle times and the desynchronized start schedule: both are
//     drawn from SplitIndex("async-client", id) by NewAsyncSimulation, so
//     the resumed constructor regenerates them bit-identically.
//   - evaluation caches: pure per-transaction accuracies; a cold cache
//     recomputes the same values.
//
// Unlike the synchronous codec, the simulated-time horizon cannot be
// extended on resume: each processed event already decided whether to
// reschedule its client by comparing against Duration, so a longer horizon
// would need reschedule decisions that were discarded. Duration (and the
// other timing parameters) are therefore stored and must match exactly.

import (
	"bytes"
	"container/heap"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/faults"
)

// asyncCheckpointMagic identifies event-driven simulation checkpoints — the
// async variant of the SDC1 checkpoint family.
var asyncCheckpointMagic = [4]byte{'S', 'D', 'A', '1'}

// asyncClientCheckpoint is the per-client carried state of an async run.
type asyncClientCheckpoint struct {
	ID        int
	Cycles    int
	Published int
	FinalAcc  float64
}

// asyncEventCheckpoint is one scheduled-but-unprocessed client activation.
type asyncEventCheckpoint struct {
	At     float64
	Seq    int
	Client int // index into the federation's client list
}

// asyncPendingCheckpoint is a published transaction still propagating.
// PubSeq/PubTime key the fault model's per-link delivery draws (zero in
// fault-free runs).
type asyncPendingCheckpoint struct {
	VisibleAt float64
	Issuer    int
	Parents   []dag.ID
	Params    []float64
	Meta      dag.Meta
	PubSeq    int
	PubTime   float64
}

// asyncTxCheckpoint is the publish metadata of a transaction already in the
// tangle, needed to recompute per-observer delivery times after a resume.
type asyncTxCheckpoint struct {
	ID      dag.ID
	PubSeq  int
	PubTime float64
}

// asyncCheckpointState is the serialized event-driven simulation.
type asyncCheckpointState struct {
	Seed         int64
	Duration     float64
	MinCycle     float64
	MaxCycle     float64
	NetworkDelay float64
	Events       int
	Seq          int
	Done         bool
	Queue        []asyncEventCheckpoint
	Pending      []asyncPendingCheckpoint
	Clients      []asyncClientCheckpoint
	DAG          []byte // SDG1 snapshot (dag.WriteTo)

	// Versioned fault-state section (0 = fault-free or pre-fault snapshot;
	// gob decodes absent fields to zero, so old snapshots stay readable).
	// The instantiated model is a pure function of (schedule, seed, clients,
	// horizon) and is rebuilt on resume; only the schedule, the publish
	// counter, per-transaction publish metadata and the communication
	// counters carry state.
	FaultsVersion int
	Faults        faults.Config
	PubSeq        int
	TxInfo        []asyncTxCheckpoint
	Deliveries    int
	Dropped       int
	Duplicated    int

	// Versioned epoch-compaction section (0 = compaction off or pre-compaction
	// snapshot). The DAG snapshot above holds the live suffix with frozen
	// parameter vectors elided; Epochs carries the per-epoch summaries that
	// make the restored tangle resume-equivalent (spill files are referenced
	// by path, not embedded, so checkpoint size tracks the live suffix).
	CompactionVersion int
	Compaction        dag.Compaction
	Epochs            []dag.EpochSummary
}

// WriteCheckpoint serializes the event-driven simulation's full state to w
// and returns the number of bytes written. The simulation can keep running
// afterwards; the checkpoint captures the state between events, which is the
// asynchronous engine's Step boundary (so engine.Run's WithCheckpoints
// writes consistent snapshots).
func (a *AsyncSimulation) WriteCheckpoint(w io.Writer) (int64, error) {
	var dagBuf bytes.Buffer
	if _, err := a.tangle.WriteTo(&dagBuf); err != nil {
		return 0, fmt.Errorf("core: checkpointing DAG: %w", err)
	}
	st := asyncCheckpointState{
		Seed:         a.cfg.Seed,
		Duration:     a.cfg.Duration,
		MinCycle:     a.cfg.MinCycle,
		MaxCycle:     a.cfg.MaxCycle,
		NetworkDelay: a.cfg.NetworkDelay,
		Events:       a.events,
		Seq:          a.seq,
		Done:         a.done,
		DAG:          dagBuf.Bytes(),
	}
	if a.cfg.Faults.Enabled() {
		st.FaultsVersion = 1
		st.Faults = a.cfg.Faults
		st.PubSeq = a.pubSeq
		st.Deliveries = a.deliveries
		st.Dropped = a.droppedDeliveries
		st.Duplicated = a.duplicatedDeliveries
		// Map iteration order is arbitrary; identical states must serialize
		// to identical bytes, so collect then sort by transaction ID.
		txs := make([]asyncTxCheckpoint, 0, len(a.txInfo))
		for id, info := range a.txInfo {
			txs = append(txs, asyncTxCheckpoint{ID: id, PubSeq: info.pubSeq, PubTime: info.pubTime})
		}
		sort.Slice(txs, func(i, j int) bool { return txs[i].ID < txs[j].ID })
		st.TxInfo = txs
	}
	if a.cfg.Compaction.Enabled() {
		st.CompactionVersion = 1
		st.Compaction = a.tangle.CompactionConfig()
		st.Epochs = a.tangle.FrozenEpochs()
	}
	for _, ev := range a.queue {
		st.Queue = append(st.Queue, asyncEventCheckpoint{At: ev.at, Seq: ev.seq, Client: ev.client})
	}
	for _, p := range a.pending {
		st.Pending = append(st.Pending, asyncPendingCheckpoint{
			VisibleAt: p.visibleAt,
			Issuer:    p.issuer,
			Parents:   p.parents,
			Params:    p.params,
			Meta:      p.meta,
			PubSeq:    p.pubSeq,
			PubTime:   p.pubTime,
		})
	}
	for _, c := range a.clients {
		st.Clients = append(st.Clients, asyncClientCheckpoint{
			ID:        c.stats.ID,
			Cycles:    c.stats.Cycles,
			Published: c.stats.Published,
			FinalAcc:  c.stats.FinalAcc,
		})
	}
	cw := &countingWriter{w: w}
	if _, err := cw.Write(asyncCheckpointMagic[:]); err != nil {
		return cw.n, err
	}
	if err := gob.NewEncoder(cw).Encode(st); err != nil {
		return cw.n, fmt.Errorf("core: encoding async checkpoint: %w", err)
	}
	return cw.n, nil
}

// readAsyncCheckpointState decodes and structurally validates an async
// checkpoint. Every field a corrupted or adversarial snapshot could use to
// break the simulation's invariants (heap ordering, client indexing, parent
// references) is checked here, so resume either succeeds or fails with an
// actionable error — never a panic and never a silently wrong run.
func readAsyncCheckpointState(r io.Reader) (*asyncCheckpointState, *dag.DAG, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	switch magic {
	case asyncCheckpointMagic:
	case checkpointMagic:
		return nil, nil, fmt.Errorf("core: this is a synchronous round-simulation checkpoint (magic %q) — resume it with ResumeSimulation, not ResumeAsyncSimulation", magic)
	case codecMagicSDG1:
		return nil, nil, fmt.Errorf("core: bad magic %q — this is a bare DAG snapshot, not a simulation checkpoint (inspect it with dagstat or dag.ReadDAG)", magic)
	case eventStreamMagicSDE1:
		return nil, nil, fmt.Errorf("core: bad magic %q — this is an event-stream log, not a simulation checkpoint (inspect it with dagstat or wire.ReadAll)", magic)
	default:
		return nil, nil, fmt.Errorf("core: bad magic %q (not a SDA1 async checkpoint)", magic)
	}
	var st asyncCheckpointState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, nil, fmt.Errorf("core: decoding async checkpoint: %w", err)
	}
	if st.Events < 0 || st.Seq < 0 {
		return nil, nil, fmt.Errorf("core: async checkpoint has negative counters (events %d, seq %d)", st.Events, st.Seq)
	}
	if st.Seq < len(st.Clients) {
		// The constructor alone consumes one sequence number per client.
		return nil, nil, fmt.Errorf("core: async checkpoint scheduling counter %d is below its %d clients", st.Seq, len(st.Clients))
	}
	for i, ev := range st.Queue {
		if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
			return nil, nil, fmt.Errorf("core: async checkpoint queue entry %d has invalid time %v", i, ev.At)
		}
		if ev.Seq < 0 || ev.Seq >= st.Seq {
			return nil, nil, fmt.Errorf("core: async checkpoint queue entry %d has sequence %d outside [0, %d)", i, ev.Seq, st.Seq)
		}
		if ev.Client < 0 || ev.Client >= len(st.Clients) {
			return nil, nil, fmt.Errorf("core: async checkpoint queue entry %d activates client index %d of %d", i, ev.Client, len(st.Clients))
		}
	}
	if st.FaultsVersion < 0 || st.FaultsVersion > 1 {
		return nil, nil, fmt.Errorf("core: async checkpoint fault section has version %d, this build understands 0 and 1 — written by a newer version?", st.FaultsVersion)
	}
	if st.FaultsVersion == 1 {
		if err := st.Faults.Validate(); err != nil {
			return nil, nil, fmt.Errorf("core: async checkpoint fault schedule: %w", err)
		}
		if st.PubSeq < 0 {
			return nil, nil, fmt.Errorf("core: async checkpoint has negative publish counter %d", st.PubSeq)
		}
	}
	if st.CompactionVersion < 0 || st.CompactionVersion > 1 {
		return nil, nil, fmt.Errorf("core: async checkpoint compaction section has version %d, this build understands 0 and 1 — written by a newer version?", st.CompactionVersion)
	}
	if st.CompactionVersion == 1 {
		if !st.Compaction.Enabled() {
			return nil, nil, fmt.Errorf("core: async checkpoint has a compaction section but no epoch width")
		}
		if err := st.Compaction.Validate(); err != nil {
			return nil, nil, fmt.Errorf("core: async checkpoint compaction config: %w", err)
		}
	}
	d, err := dag.ReadDAG(bytes.NewReader(st.DAG))
	if err != nil {
		return nil, nil, fmt.Errorf("core: async checkpoint DAG: %w", err)
	}
	if st.CompactionVersion == 1 {
		if err := d.RestoreCompaction(st.Compaction, st.Epochs); err != nil {
			return nil, nil, fmt.Errorf("core: async checkpoint epoch state: %w", err)
		}
	}
	for i, tx := range st.TxInfo {
		if int(tx.ID) <= 0 || int(tx.ID) >= d.Size() {
			return nil, nil, fmt.Errorf("core: async checkpoint publish metadata entry %d names unknown transaction %d", i, tx.ID)
		}
		if tx.PubSeq < 0 || tx.PubSeq >= st.PubSeq {
			return nil, nil, fmt.Errorf("core: async checkpoint publish metadata entry %d has sequence %d outside [0, %d)", i, tx.PubSeq, st.PubSeq)
		}
		if math.IsNaN(tx.PubTime) || math.IsInf(tx.PubTime, 0) || tx.PubTime < 0 {
			return nil, nil, fmt.Errorf("core: async checkpoint publish metadata entry %d has invalid publish time %v", i, tx.PubTime)
		}
	}
	paramDim := len(d.Genesis().Params)
	for i, p := range st.Pending {
		if math.IsNaN(p.VisibleAt) || math.IsInf(p.VisibleAt, 0) {
			return nil, nil, fmt.Errorf("core: async checkpoint pending tx %d has invalid visibility time %v", i, p.VisibleAt)
		}
		if len(p.Params) != paramDim {
			return nil, nil, fmt.Errorf("core: async checkpoint pending tx %d has %d params, DAG models have %d", i, len(p.Params), paramDim)
		}
		for _, parent := range p.Parents {
			if int(parent) < 0 || int(parent) >= d.Size() {
				return nil, nil, fmt.Errorf("core: async checkpoint pending tx %d approves unknown transaction %d", i, parent)
			}
		}
	}
	return &st, d, nil
}

// ResumeAsyncSimulation reconstructs an event-driven simulation from a
// checkpoint written by (*AsyncSimulation).WriteCheckpoint, using the same
// federation and configuration as the original run. The resumed simulation
// continues from the checkpointed event and produces per-event results, final
// statistics and a DAG bit-identical to a run that was never interrupted.
//
// Unlike ResumeSimulation, the configured horizon cannot be extended: every
// processed event already decided against Duration whether to reschedule its
// client, so Duration (and MinCycle/MaxCycle/NetworkDelay, which shape the
// regenerated schedule) must match the checkpoint exactly.
func ResumeAsyncSimulation(fed *dataset.Federation, cfg AsyncConfig, r io.Reader) (*AsyncSimulation, error) {
	st, d, err := readAsyncCheckpointState(r)
	if err != nil {
		return nil, err
	}
	if st.Seed != cfg.Seed {
		return nil, fmt.Errorf("core: async checkpoint was taken with Seed %d, config has %d — resuming under a different seed would diverge",
			st.Seed, cfg.Seed)
	}
	// The timing parameters shape both the regenerated per-client schedule
	// and the reschedule decisions already taken; any difference diverges.
	if st.Duration != cfg.Duration || st.MinCycle != cfg.MinCycle || st.MaxCycle != cfg.MaxCycle || st.NetworkDelay != cfg.NetworkDelay {
		return nil, fmt.Errorf("core: async checkpoint was taken with Duration=%v MinCycle=%v MaxCycle=%v NetworkDelay=%v, config has Duration=%v MinCycle=%v MaxCycle=%v NetworkDelay=%v — resuming under different timing would diverge",
			st.Duration, st.MinCycle, st.MaxCycle, st.NetworkDelay,
			cfg.Duration, cfg.MinCycle, cfg.MaxCycle, cfg.NetworkDelay)
	}
	if !st.Faults.Equal(cfg.Faults) {
		return nil, fmt.Errorf("core: async checkpoint was taken with fault schedule %+v, config has %+v — resuming under a different schedule would diverge",
			st.Faults, cfg.Faults)
	}
	if !compactionMatches(st.Compaction, cfg.Compaction) {
		return nil, fmt.Errorf("core: async checkpoint was taken with compaction %+v, config has %+v — resuming under a different epoch config would diverge",
			st.Compaction, cfg.Compaction)
	}
	a, err := NewAsyncSimulation(fed, cfg)
	if err != nil {
		return nil, err
	}
	if len(st.Clients) != len(a.clients) {
		return nil, fmt.Errorf("core: async checkpoint has %d clients, federation has %d", len(st.Clients), len(a.clients))
	}
	// The checkpointed genesis must match the one the seed regenerates: a
	// mismatch means a different architecture or a tampered snapshot.
	want, got := a.tangle.Genesis().Params, d.Genesis().Params
	if len(want) != len(got) {
		return nil, fmt.Errorf("core: async checkpoint genesis has %d params, config architecture needs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return nil, fmt.Errorf("core: async checkpoint genesis diverges from the seeded genesis at param %d", i)
		}
	}

	a.tangle = d
	// The restored tangle replaces the one NewAsyncSimulation configured:
	// re-wire its cumulative-weight sweep to the configured budget.
	a.tangle.SetParallelism(cfg.Pool, cfg.Workers)
	if st.CompactionVersion == 1 {
		a.compFloor = a.tangle.LiveFloor()
		for _, c := range a.clients {
			c.eval.Advance(a.compFloor)
		}
	}
	a.events = st.Events
	a.seq = st.Seq
	a.done = st.Done
	if a.net != nil {
		// The model itself was rebuilt by the constructor (a pure function of
		// the schedule); restore the publish metadata and counters, recompute
		// the per-observer delivery times from it, and point the partial views
		// at the restored tangle. Reveal state reconstructs lazily — delivery
		// times are pure, so the monotone predicate reveals exactly the set
		// the uninterrupted run had accumulated.
		a.pubSeq = st.PubSeq
		a.deliveries = st.Deliveries
		a.droppedDeliveries = st.Dropped
		a.duplicatedDeliveries = st.Duplicated
		a.txInfo = make(map[dag.ID]txDelivery, len(st.TxInfo))
		for _, tx := range st.TxInfo {
			issuer := a.tangle.MustGet(tx.ID).Issuer
			a.txInfo[tx.ID] = txDelivery{pubSeq: tx.PubSeq, pubTime: tx.PubTime,
				linkVisibleAt: a.linkVisibleAt(tx.PubSeq, issuer, tx.PubTime)}
		}
		for _, c := range a.clients {
			c.view = dag.NewView(a.tangle)
		}
	}
	for i, cc := range st.Clients {
		c := a.clients[i]
		if c.stats.ID != cc.ID {
			return nil, fmt.Errorf("core: async checkpoint client %d has ID %d, federation has %d", i, cc.ID, c.stats.ID)
		}
		c.stats.Cycles = cc.Cycles
		c.stats.Published = cc.Published
		c.stats.FinalAcc = cc.FinalAcc
	}
	// Replace the constructor's fresh start schedule with the checkpointed
	// queue. The stored slice is a valid heap, but re-establishing the
	// invariant costs O(n) and also covers hand-edited snapshots; the pop
	// order is unaffected either way because (time, seq) is a strict total
	// order over the entries.
	a.queue = a.queue[:0]
	for _, ev := range st.Queue {
		a.queue = append(a.queue, event{at: ev.At, seq: ev.Seq, client: ev.Client})
	}
	heap.Init(&a.queue)
	a.pending = a.pending[:0]
	for _, p := range st.Pending {
		a.pending = append(a.pending, pendingTxAsync{
			visibleAt: p.VisibleAt,
			issuer:    p.Issuer,
			parents:   p.Parents,
			params:    p.Params,
			meta:      p.Meta,
			pubSeq:    p.PubSeq,
			pubTime:   p.PubTime,
		})
		if a.net != nil {
			a.pending[len(a.pending)-1].linkVisibleAt = a.linkVisibleAt(p.PubSeq, p.Issuer, p.PubTime)
		}
	}
	return a, nil
}
