package graph

import (
	"math/rand"
	"testing"
)

// randomIntGraph builds a connected random graph with integer weights —
// integer so that the incremental gain cache's additions and subtractions
// are exact and the cut-monotonicity invariant is testable without float
// tolerance.
func randomIntGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	e := newEdges(n)
	for i := 0; i+1 < n; i++ { // spanning path keeps it connected
		e.add(i, i+1, float64(rng.Intn(100)+1))
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			e.add(u, v, float64(rng.Intn(50)+1))
		}
	}
	return e.graph()
}

// The refinement invariant: every additional refinement pass can only keep
// or lower the cut weight, never raise it. Partition with refinePasses = p
// runs exactly p sweeps over the same greedy seed assignment, so sweeping
// p+1 times must produce a cut no worse than p times.
func TestRefineNeverIncreasesCut(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := randomIntGraph(seed, 48)
		prev := -1.0
		for passes := 1; passes <= 6; passes++ {
			part, err := Partition(g, PartitionOptions{MinSize: 4, TargetSize: 4, refinePasses: passes})
			if err != nil {
				t.Fatal(err)
			}
			cut, err := g.CutWeight(part)
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && cut > prev {
				t.Errorf("seed %d: cut rose from %g to %g at %d passes", seed, prev, cut, passes)
			}
			prev = cut
		}
	}
}

// The incremental gain cache must leave refinement decisions identical to
// recomputing every vertex's cluster connections from scratch each sweep:
// verify that after refinement no vertex still has a strictly better
// cluster available (a fixed point of the recomputed gains), when passes
// are plentiful enough to converge.
func TestRefineReachesFixedPoint(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomIntGraph(seed, 40)
		opts := PartitionOptions{MinSize: 4, TargetSize: 4, refinePasses: 64}
		part, err := Partition(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		sizes := PartSizes(part)
		for v := 0; v < g.N(); v++ {
			if sizes[part[v]] <= opts.MinSize {
				continue // not movable
			}
			conn := map[int]float64{}
			for _, u := range g.Neighbors(v) {
				if u != v {
					conn[part[u]] += g.Weight(v, u)
				}
			}
			for id, w := range conn {
				if id != part[v] && w > conn[part[v]] {
					t.Errorf("seed %d: vertex %d still improvable: cluster %d weight %g > own %g",
						seed, v, id, w, conn[part[v]])
				}
			}
		}
	}
}

func TestFromCSRValidation(t *testing.T) {
	// Valid 2-vertex graph with one edge of weight 3.
	g, err := (*Arena)(nil).FromCSR(2, []int64{0, 1, 2}, []int32{1, 0}, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 3 || g.Strength(0) != 3 || g.TotalWeight() != 3 {
		t.Errorf("FromCSR graph: weight %g strength %g total %g", g.Weight(0, 1), g.Strength(0), g.TotalWeight())
	}
	if _, err := (*Arena)(nil).FromCSR(2, []int64{0, 1}, []int32{1}, []float64{1}); err == nil {
		t.Error("accepted short rowptr")
	}
	if _, err := (*Arena)(nil).FromCSR(2, []int64{0, 1, 2}, []int32{5, 0}, []float64{1, 1}); err == nil {
		t.Error("accepted out-of-range column")
	}
	if _, err := (*Arena)(nil).FromCSR(2, []int64{0, 2, 2}, []int32{1, 1}, []float64{1, 1}); err == nil {
		t.Error("accepted duplicate columns")
	}
	if _, err := (*Arena)(nil).FromCSR(2, []int64{0, 2, 1}, []int32{0, 1}, []float64{1, 1}); err == nil {
		t.Error("accepted decreasing rowptr")
	}
}
