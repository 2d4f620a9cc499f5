package topology

import (
	"slices"
	"sync"
	"testing"
)

// samePlacement compares every accessor of two placements of one rank count
// on one machine, the non-allocating ones before the two that materialise.
func samePlacement(t *testing.T, label string, got, want *Placement) {
	t.Helper()
	nodes := got.Machine().Nodes
	if got.NumRanks() != want.NumRanks() || got.NumUsed() != want.NumUsed() {
		t.Fatalf("%s: ranks %d used %d, want %d %d", label, got.NumRanks(), got.NumUsed(),
			want.NumRanks(), want.NumUsed())
	}
	for r := Rank(0); int(r) < want.NumRanks(); r++ {
		if got.NodeOf(r) != want.NodeOf(r) || got.RankAt(int(r)) != want.RankAt(int(r)) {
			t.Fatalf("%s: rank %d: node %d at %d, want %d %d", label, r, got.NodeOf(r), got.RankAt(int(r)),
				want.NodeOf(r), want.RankAt(int(r)))
		}
	}
	for i := 0; i < want.NumUsed(); i++ {
		if got.UsedNode(i) != want.UsedNode(i) {
			t.Fatalf("%s: UsedNode(%d) = %d, want %d", label, i, got.UsedNode(i), want.UsedNode(i))
		}
	}
	for n := NodeID(0); int(n) < nodes; n++ {
		glo, ghi := got.Span(n)
		wlo, whi := want.Span(n)
		if glo != wlo || ghi != whi || got.UsedIndex(n) != want.UsedIndex(n) || got.CountOn(n) != want.CountOn(n) {
			t.Fatalf("%s: node %d: span [%d,%d) index %d count %d, want [%d,%d) %d %d", label, n, glo, ghi, got.UsedIndex(n), got.CountOn(n),
				wlo, whi, want.UsedIndex(n), want.CountOn(n))
		}
	}
	if !slices.Equal(got.UsedNodes(), want.UsedNodes()) {
		t.Fatalf("%s: UsedNodes %v, want %v", label, got.UsedNodes(), want.UsedNodes())
	}
	for n := NodeID(0); int(n) < nodes; n++ {
		if !slices.Equal(got.RanksOn(n), want.RanksOn(n)) {
			t.Fatalf("%s: RanksOn(%d) %v, want %v", label, n, got.RanksOn(n), want.RanksOn(n))
		}
	}
}

// Block's closed form equals the explicit placement of r -> r/ppn on every
// accessor: full and ragged last nodes, trailing unused nodes, more procs
// per node than ranks, one rank, no rank.
func TestBlockMatchesExplicit(t *testing.T) {
	for nodes := 1; nodes <= 9; nodes++ {
		for ppn := 1; ppn <= 7; ppn++ {
			for ranks := 0; ranks <= nodes*ppn; ranks++ {
				m := &Machine{Name: "b", Nodes: nodes}
				got, err := Block(m, ranks, ppn)
				if err != nil {
					t.Fatal(err)
				}
				nodeOf := make([]NodeID, ranks)
				for r := range nodeOf {
					nodeOf[r] = NodeID(r / ppn)
				}
				want, err := NewPlacement(m, nodeOf)
				if err != nil {
					t.Fatal(err)
				}
				samePlacement(t, "block", got, want)
			}
		}
	}
	m := &Machine{Name: "b", Nodes: 3}
	got, err := Block(m, 5, int(^uint(0)>>1)) // ppn far above ranks: one node, no overflow
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewPlacement(m, make([]NodeID, 5))
	samePlacement(t, "huge ppn", got, want)
}

// An out-of-range rank, position or node panics in the block form as the
// explicit form's slice index does.
func TestBlockOutOfRangePanics(t *testing.T) {
	m := &Machine{Name: "b", Nodes: 4}
	p, err := Block(m, 6, 2) // nodes 0..2 used, node 3 empty
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){
		"NodeOf(-1)":    func() { p.NodeOf(-1) },
		"NodeOf(6)":     func() { p.NodeOf(6) },
		"RankAt(6)":     func() { p.RankAt(6) },
		"UsedNode(3)":   func() { p.UsedNode(3) },
		"UsedNode(-1)":  func() { p.UsedNode(-1) },
		"UsedIndex(4)":  func() { p.UsedIndex(4) },
		"UsedIndex(-1)": func() { p.UsedIndex(-1) },
		"Span(4)":       func() { p.Span(4) },
		"CountOn(-1)":   func() { p.CountOn(-1) },
		"RanksOn(4)":    func() { p.RanksOn(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// Block allocates the same few objects at a thousand ranks and at a million,
// and the hot-loop accessors none.
func TestBlockAllocatesO1(t *testing.T) {
	m := &Machine{Name: "b", Nodes: 1 << 18}
	var p *Placement
	small := testing.AllocsPerRun(10, func() { p, _ = Block(m, 1000, 4) })
	large := testing.AllocsPerRun(10, func() { p, _ = Block(m, 1<<20, 4) })
	if small != large || large > 1 {
		t.Errorf("Block allocates %v objects at 1k ranks, %v at 1M; want one at both", small, large)
	}
	sink := 0
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < p.NumUsed(); i += 1000 {
			lo, hi := p.Span(p.UsedNode(i))
			sink += hi - lo + int(p.RankAt(lo)) + p.UsedIndex(p.NodeOf(Rank(lo))) + p.CountOn(NodeID(i))
		}
	}); n != 0 {
		t.Errorf("accessors allocate %v objects", n)
	}
	_ = sink
}

// Concurrent first calls of RanksOn and UsedNodes materialise one set of
// arrays (run under -race).
func TestBlockMaterialisesOnce(t *testing.T) {
	m := &Machine{Name: "b", Nodes: 64}
	p, err := Block(m, 250, 4)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]*Rank, 8)
	used := make([]*NodeID, 8)
	var wg sync.WaitGroup
	for i := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				ranks[i], used[i] = &p.RanksOn(0)[0], &p.UsedNodes()[0]
			} else {
				used[i], ranks[i] = &p.UsedNodes()[0], &p.RanksOn(0)[0]
			}
		}()
	}
	wg.Wait()
	for i := range ranks {
		if ranks[i] != ranks[0] || used[i] != used[0] {
			t.Errorf("caller %d saw its own arrays", i)
		}
	}
	if got := p.RanksOn(62); len(got) != 2 || got[0] != 248 || p.UsedNodes()[62] != 62 || len(p.RanksOn(63)) != 0 {
		t.Errorf("RanksOn(62) = %v, UsedNodes()[62] = %d, RanksOn(63) = %v", got, p.UsedNodes()[62], p.RanksOn(63))
	}
}
