package dag

import (
	"testing"

	"github.com/specdag/specdag/internal/xrand"
)

func TestNewViewShowsOnlyGenesis(t *testing.T) {
	d := New(nil)
	d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	v := NewView(d)
	if v.NumVisible() != 1 || !v.IsVisible(0) {
		t.Fatal("fresh view must show exactly genesis")
	}
	tips := v.Tips()
	if len(tips) != 1 || tips[0] != 0 {
		t.Fatalf("fresh view tips = %v, want [0]", tips)
	}
}

func TestViewRevealValidation(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 1, []ID{a.ID, a.ID}, nil, Meta{})
	v := NewView(d)
	if err := v.Reveal(b.ID); err == nil {
		t.Fatal("revealing a child before its parent must fail")
	}
	if err := v.Reveal(99); err == nil {
		t.Fatal("revealing an unknown id must fail")
	}
	if err := v.Reveal(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := v.Reveal(b.ID); err != nil {
		t.Fatal(err)
	}
	if err := v.Reveal(b.ID); err != nil {
		t.Fatal("re-reveal must be a no-op, not an error")
	}
}

func TestViewTipsAndChildrenFiltering(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 0, []ID{0, 0}, nil, Meta{})
	c, _ := d.Add(3, 1, []ID{a.ID, b.ID}, nil, Meta{})

	v := NewView(d)
	if err := v.Reveal(a.ID); err != nil {
		t.Fatal(err)
	}
	// b and c invisible: a is the only visible tip; genesis's visible
	// children are just a.
	tips := v.Tips()
	if len(tips) != 1 || tips[0] != a.ID {
		t.Fatalf("tips = %v, want [%d]", tips, a.ID)
	}
	kids := v.Children(0)
	if len(kids) != 1 || kids[0] != a.ID {
		t.Fatalf("children(genesis) = %v, want [%d]", kids, a.ID)
	}
	// Reveal the rest: c becomes the only tip.
	if err := v.Reveal(b.ID); err != nil {
		t.Fatal(err)
	}
	if err := v.Reveal(c.ID); err != nil {
		t.Fatal(err)
	}
	tips = v.Tips()
	if len(tips) != 1 || tips[0] != c.ID {
		t.Fatalf("tips = %v, want [%d]", tips, c.ID)
	}
}

func TestViewMustGetPanicsOnInvisible(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0}, nil, Meta{})
	v := NewView(d)
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet of invisible tx must panic")
		}
	}()
	v.MustGet(a.ID)
}

func TestViewRevealWhereByRound(t *testing.T) {
	d := New(nil)
	prev := ID(0)
	for r := 0; r < 6; r++ {
		tx, _ := d.Add(r%3, r, []ID{prev, prev}, nil, Meta{})
		prev = tx.ID
	}
	v := NewView(d)
	// Reveal everything up to round 3.
	v.RevealWhere(func(tx *Transaction) bool { return tx.Round <= 3 })
	if v.NumVisible() != 5 { // genesis + rounds 0..3
		t.Fatalf("visible = %d, want 5", v.NumVisible())
	}
	// Monotone predicate extension reveals the rest.
	v.RevealWhere(func(tx *Transaction) bool { return tx.Round <= 5 })
	if v.NumVisible() != 7 {
		t.Fatalf("visible = %d, want 7", v.NumVisible())
	}
}

func TestViewRevealWhereSkipsOrphans(t *testing.T) {
	// A transaction whose parent is excluded by the predicate must not be
	// revealed until the parent qualifies.
	d := New(nil)
	a, _ := d.Add(1, 5, []ID{0, 0}, nil, Meta{}) // late parent
	b, _ := d.Add(2, 1, []ID{a.ID, a.ID}, nil, Meta{})
	v := NewView(d)
	v.RevealWhere(func(tx *Transaction) bool { return tx.Round <= 1 })
	if v.IsVisible(b.ID) {
		t.Fatal("child revealed before its parent qualified")
	}
	v.RevealWhere(func(tx *Transaction) bool { return tx.Round <= 5 })
	if !v.IsVisible(a.ID) || !v.IsVisible(b.ID) {
		t.Fatal("both should be visible once the parent qualifies")
	}
}

func TestViewRevealWhereOutOfOrder(t *testing.T) {
	// Per-link jitter can deliver transaction 2 before transaction 1: a later
	// call must still reconsider 1, and keep is never asked about visible
	// transactions again.
	d := New(nil)
	a, _ := d.Add(1, 5, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 1, []ID{0, 0}, nil, Meta{})
	v := NewView(d)
	var asked []ID
	keep := func(round int) func(*Transaction) bool {
		return func(tx *Transaction) bool {
			asked = append(asked, tx.ID)
			return tx.Round <= round
		}
	}
	v.RevealWhere(keep(1))
	if v.IsVisible(a.ID) || !v.IsVisible(b.ID) {
		t.Fatalf("after round 1: visible(1)=%v visible(2)=%v, want false true", v.IsVisible(a.ID), v.IsVisible(b.ID))
	}
	if p := v.VisiblePrefix(); p != a.ID {
		t.Fatalf("visible prefix = %d, want %d", p, a.ID)
	}
	asked = nil
	v.RevealWhere(keep(5))
	if !v.IsVisible(a.ID) {
		t.Fatal("transaction 1 was not reconsidered after transaction 2 became visible")
	}
	if len(asked) != 1 || asked[0] != a.ID {
		t.Fatalf("keep consulted for %v, want only [%d]", asked, a.ID)
	}
	if p := v.VisiblePrefix(); p != ID(d.Size()) {
		t.Fatalf("visible prefix = %d, want %d", p, d.Size())
	}
}

func TestViewDepthsAndSampling(t *testing.T) {
	d := New(nil)
	prev := ID(0)
	var ids []ID
	for i := 0; i < 10; i++ {
		tx, _ := d.Add(1, i, []ID{prev, prev}, nil, Meta{})
		prev = tx.ID
		ids = append(ids, tx.ID)
	}
	v := NewView(d)
	// Reveal only the first 5: the 5th is the view's tip even though the
	// global DAG goes deeper.
	v.RevealWhere(func(tx *Transaction) bool { return tx.Round <= 4 })
	depths := v.Depths()
	if depths[ids[4]] != 0 {
		t.Fatalf("view tip depth = %d, want 0", depths[ids[4]])
	}
	if depths[0] != 5 {
		t.Fatalf("genesis depth = %d, want 5", depths[0])
	}
	rng := xrand.New(1)
	tx := v.SampleAtDepth(rng, 2, 3)
	if dep := depths[tx.ID]; dep < 2 || dep > 3 {
		t.Fatalf("sampled depth %d outside [2,3]", dep)
	}
	if got := v.SampleAtDepth(rng, 50, 60); !got.IsGenesis() {
		t.Fatal("unsatisfiable depth band should fall back to genesis")
	}
}

func TestViewCumulativeWeights(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 1, []ID{a.ID, a.ID}, nil, Meta{})
	c, _ := d.Add(3, 2, []ID{b.ID, b.ID}, nil, Meta{})
	v := NewView(d)
	v.Reveal(a.ID)
	v.Reveal(b.ID)
	// c invisible: weights computed within the view only.
	w := v.CumulativeWeights()
	if w[0] != 3 || w[a.ID] != 2 || w[b.ID] != 1 {
		t.Fatalf("view weights = %v", w)
	}
	if _, ok := w[c.ID]; ok {
		t.Fatal("invisible transaction must not appear in view weights")
	}
}

func TestViewMatchesDAGWhenFullyRevealed(t *testing.T) {
	rng := xrand.New(3)
	d := buildRandom(rng, 40)
	v := NewView(d)
	v.RevealWhere(func(*Transaction) bool { return true })
	if v.NumVisible() != d.Size() {
		t.Fatalf("full reveal visible = %d, want %d", v.NumVisible(), d.Size())
	}
	dTips, vTips := d.Tips(), v.Tips()
	if len(dTips) != len(vTips) {
		t.Fatalf("tips mismatch: %v vs %v", dTips, vTips)
	}
	for i := range dTips {
		if dTips[i] != vTips[i] {
			t.Fatalf("tips mismatch: %v vs %v", dTips, vTips)
		}
	}
	dw, vw := d.CumulativeWeights(), v.CumulativeWeights()
	for id, w := range dw {
		if vw[id] != w {
			t.Fatalf("weight(%d) = %d, want %d", id, vw[id], w)
		}
	}
}
