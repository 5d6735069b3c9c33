package dag

import (
	"fmt"
	"sort"

	"github.com/specdag/specdag/internal/xrand"
)

// View is a read-only, partial-visibility view of a DAG: the sub-DAG induced
// by a set of revealed transactions. It models non-ideal transaction
// dissemination — a client that has not yet received a transaction walks a
// tangle without it, so its tips and weights differ from the global ones.
//
// The paper's scalability discussion (§5.3.5) explicitly assumes ideal
// broadcast; View is the machinery for relaxing that assumption.
//
// Genesis is always visible. Reveal must be called in an order that keeps
// the visible set parent-closed (a transaction only after its parents),
// which holds automatically when revealing in insertion order.
//
// Concurrency: a View is NOT safe for concurrent use — its visibility maps
// are unsynchronized — so each simulated client owns one and all of that
// client's reveals and walks happen on a single goroutine. Distinct clients'
// views may be used concurrently with each other: the only state a View
// shares is the underlying *DAG, whose accessors take its RWMutex, and the
// round engine never adds transactions while views are being read.
type View struct {
	d *DAG
	// visible marks revealed transactions.
	visible map[ID]bool
	// visibleKids counts visible children per visible transaction, for O(1)
	// tip maintenance.
	visibleKids map[ID]int
	// cursor is where RevealWhere's scan starts: every transaction below it
	// is visible.
	cursor ID
}

// NewView creates a view of d in which only genesis is visible.
func NewView(d *DAG) *View {
	v := &View{
		d:           d,
		visible:     map[ID]bool{0: true},
		visibleKids: map[ID]int{0: 0},
		cursor:      1,
	}
	return v
}

// Reveal makes the transaction with the given id visible. It returns an
// error if the id is unknown or any parent is not yet visible (the visible
// set must stay parent-closed so walks cannot dangle).
func (v *View) Reveal(id ID) error {
	if v.visible[id] {
		return nil
	}
	tx, ok := v.d.Get(id)
	if !ok {
		return fmt.Errorf("dag: view reveal of unknown transaction %d", id)
	}
	for _, p := range tx.Parents {
		if !v.visible[p] {
			return fmt.Errorf("dag: view reveal of %d before its parent %d", id, p)
		}
	}
	v.visible[id] = true
	v.visibleKids[id] = 0
	seen := map[ID]bool{}
	for _, p := range tx.Parents {
		if seen[p] {
			continue
		}
		seen[p] = true
		v.visibleKids[p]++
	}
	return nil
}

// RevealWhere reveals, in insertion order, every not-yet-visible
// transaction for which keep returns true; keep is not called for
// transactions that are already visible. A transaction whose parents are not
// visible is skipped. Every call reconsiders all not-yet-visible
// transactions from the first one on, including those skipped below an
// already-revealed transaction, so visibility need not follow insertion
// order (a later transaction may be revealed before an earlier one, as
// per-link jittered delivery requires). For views to reconstruct after a
// resume, predicates should be monotone in time (e.g. "published in round
// <= r"), which is how dissemination delays work.
func (v *View) RevealWhere(keep func(*Transaction) bool) {
	size := ID(v.d.Size())
	for id := v.cursor; id < size; id++ {
		if v.visible[id] || !keep(v.d.MustGet(id)) {
			continue
		}
		_ = v.Reveal(id) // an error means a parent is invisible: reconsidered later
	}
	// Advance the cursor past the fully visible prefix.
	for v.cursor < size && v.visible[v.cursor] {
		v.cursor++
	}
}

// VisiblePrefix returns the ID below which every transaction is visible, as
// of the last RevealWhere call: later calls never consult keep for those.
func (v *View) VisiblePrefix() ID { return v.cursor }

// NumVisible returns the number of visible transactions.
func (v *View) NumVisible() int { return len(v.visible) }

// IsVisible reports whether id has been revealed.
func (v *View) IsVisible(id ID) bool { return v.visible[id] }

// Genesis returns the genesis transaction (always visible).
func (v *View) Genesis() *Transaction { return v.d.Genesis() }

// MustGet returns a visible transaction and panics for invisible or unknown
// IDs — walks over a view can only reach visible transactions, so reaching
// an invisible one is a bug.
func (v *View) MustGet(id ID) *Transaction {
	if !v.visible[id] {
		panic(fmt.Sprintf("dag: view access to invisible transaction %d", id))
	}
	return v.d.MustGet(id)
}

// Children returns the visible children of id, in insertion order.
func (v *View) Children(id ID) []ID {
	all := v.d.Children(id)
	out := make([]ID, 0, len(all))
	for _, c := range all {
		if v.visible[c] {
			out = append(out, c)
		}
	}
	return out
}

// Tips returns the visible transactions without visible children, in
// ascending order.
func (v *View) Tips() []ID {
	out := make([]ID, 0)
	for id, kids := range v.visibleKids {
		if kids == 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Depths returns, per visible transaction, the shortest distance to a
// visible tip following visible child edges.
func (v *View) Depths() map[ID]int {
	depths := make(map[ID]int, len(v.visible))
	queue := v.Tips()
	for _, id := range queue {
		depths[id] = 0
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range v.d.MustGet(cur).Parents {
			if !v.visible[p] {
				continue
			}
			if _, seen := depths[p]; !seen {
				depths[p] = depths[cur] + 1
				queue = append(queue, p)
			}
		}
	}
	return depths
}

// SampleAtDepth returns a uniformly random visible transaction at depth
// [minDepth, maxDepth] from the visible tips, or genesis if none qualifies.
func (v *View) SampleAtDepth(rng *xrand.RNG, minDepth, maxDepth int) *Transaction {
	depths := v.Depths()
	var candidates []ID
	for id, depth := range depths {
		if depth >= minDepth && depth <= maxDepth {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return v.d.Genesis()
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	return v.d.MustGet(candidates[rng.Intn(len(candidates))])
}

// CumulativeWeights returns, per visible transaction, the number of visible
// transactions approving it directly or indirectly, plus one for itself.
func (v *View) CumulativeWeights() map[ID]int {
	ids := make([]ID, 0, len(v.visible))
	for id := range v.visible {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	index := make(map[ID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}

	n := len(ids)
	words := (n + 63) / 64
	approvers := make([][]uint64, n)
	for i := range approvers {
		approvers[i] = make([]uint64, words)
	}
	for i := n - 1; i >= 0; i-- {
		tx := v.d.MustGet(ids[i])
		for _, p := range tx.Parents {
			pi, ok := index[p]
			if !ok {
				continue
			}
			dst, src := approvers[pi], approvers[i]
			for w := range dst {
				dst[w] |= src[w]
			}
			dst[i/64] |= 1 << (uint(i) % 64)
		}
	}
	weights := make(map[ID]int, n)
	for i, id := range ids {
		weights[id] = 1 + popcountSet(approvers[i])
	}
	return weights
}
