package hierclust

import (
	"encoding/json"
	"fmt"
)

// PlanSweep compiles a sweep into its deduplicated evaluation DAG. The
// plan is pure data — which cells exist, in what order, and which of their
// intermediates (placements, trace builds, clustering/partition builds with
// their score profiles) are shared — so callers can inspect the dedup ratio,
// bound job admission, and report progress before any work runs.
// Pipeline.RunSweep executes it.

// SweepPlan is the compiled form of a sweep: the expanded cells in
// deterministic order plus the shared-node tables.
type SweepPlan struct {
	// Sweep is the declaration the plan was compiled from.
	Sweep *Sweep
	// Cells lists the expanded cells in expansion (result) order.
	Cells []PlannedCell

	// TraceBuilds is the number of distinct trace builds the plan needs:
	// one per shared trace node plus one per cell whose trace source is
	// uncacheable ("file"). TraceRefs counts every cell's demand for a
	// trace; TraceRefs - TraceBuilds builds are saved by sharing.
	TraceBuilds int
	// TraceRefs is the total per-cell trace demand (= len(Cells)).
	TraceRefs int
	// PartitionBuilds / PartitionRefs are the same accounting for
	// strategy clustering builds (one ref per strategy per cell).
	PartitionBuilds int
	PartitionRefs   int
}

// PlannedCell is one cell of the compiled DAG.
type PlannedCell struct {
	// Index is the cell's position in expansion order.
	Index int
	// Scenario is the fully expanded scenario this cell evaluates.
	Scenario *Scenario
	// CacheKey is Scenario.CacheKey() — the key the cell's rendered
	// result is cached and resumed under, shared byte-for-byte with a
	// hand-written scenario of the same content.
	CacheKey string
	// PlacementNode is the shared machine-and-placement node id this cell
	// consumes, or -1 for a private one. Placements are cheap next to traces
	// and partitions: the plan's builds, refs and DedupRatio leave them out.
	PlacementNode int
	// TraceNode is the shared trace-node id this cell consumes, or -1
	// when the cell's trace is uncacheable and built privately.
	TraceNode int
	// TraceBuilder is true on the first cell (in expansion order)
	// referencing the cell's trace node: the cell whose result reports
	// the underlying build ("miss") rather than the shared fan-out
	// ("trace-hit"). Always true for private traces.
	TraceBuilder bool
	// PartNodes holds, per strategy (in scenario order), the shared
	// partition-node id, or -1 for a privately built clustering.
	PartNodes []int
}

// partitionKey returns the canonical key identifying the clustering a
// strategy spec builds for a scenario. Two (scenario, spec) pairs with equal
// keys build bit-identical clusterings: the key folds in the machine, the
// placement, the trace identity (a clustering may read the communication
// matrix), and the full strategy spec. Scenarios differing only in mix,
// baseline, name, or sibling strategies share a partition. The planner
// passes in sc.TraceKey() and the spec's compact JSON, each fixed across
// many cells. An uncacheable trace ("file" source) has no TraceKey and makes
// the partition unshareable too: the bytes behind a path are not a value.
func partitionKey(sc *Scenario, traceKey, specJSON string) string {
	return fmt.Sprintf("part|model=%s|nodes=%d|policy=%s|ranks=%d|ppn=%d|%s|%s",
		sc.Machine.Model, sc.Machine.Nodes,
		sc.Placement.Policy, sc.Placement.Ranks, sc.Placement.ProcsPerNode,
		traceKey, specJSON)
}

// placementKey identifies a machine and the placement built on it.
type placementKey struct {
	MachineSpec
	PlacementSpec
}

// nodeID returns key's shared-node id, dense in first-reference order.
func nodeID[K comparable](ids map[K]int, key K) (id int, seen bool) {
	if id, seen = ids[key]; !seen {
		id = len(ids)
		ids[key] = id
	}
	return id, seen
}

// PlanSweep validates and compiles a sweep. The returned plan's cells are
// in expansion order; shared-node ids are dense indices assigned in first-
// reference order.
func PlanSweep(sw *Sweep) (*SweepPlan, error) {
	cells, err := sw.Cells() // every cell validated
	if err != nil {
		return nil, err
	}
	plan := &SweepPlan{Sweep: sw, Cells: make([]PlannedCell, len(cells))}
	placeIDs := map[placementKey]int{}
	traceIDs := map[string]int{}
	partIDs := map[string]int{}
	// A strategies-axis value reaches every cell that uses it as the same
	// spec values (Hier pointers included), so one marshal serves them all.
	specJSON := map[StrategySpec]string{}
	for i, sc := range cells {
		key, err := sc.cacheKey()
		if err != nil {
			return nil, fmt.Errorf("hierclust: sweep %q: cell %q: %w", sw.Name, sc.Name, err)
		}
		cell := PlannedCell{Index: i, Scenario: sc, CacheKey: key, TraceNode: -1, TraceBuilder: true}
		cell.PlacementNode, _ = nodeID(placeIDs, placementKey{sc.Machine, sc.Placement})
		plan.TraceRefs++
		traceKey, shareable := sc.TraceKey()
		if shareable {
			var seen bool
			cell.TraceNode, seen = nodeID(traceIDs, traceKey)
			cell.TraceBuilder = !seen
		} else {
			plan.TraceBuilds++ // private build
		}
		cell.PartNodes = make([]int, len(sc.Strategies))
		for j, spec := range sc.Strategies {
			plan.PartitionRefs++
			if !shareable {
				cell.PartNodes[j] = -1
				plan.PartitionBuilds++ // private build
				continue
			}
			js, ok := specJSON[spec]
			if !ok {
				b, err := json.Marshal(spec)
				if err != nil {
					return nil, fmt.Errorf("hierclust: sweep %q: cell %q: %w", sw.Name, sc.Name, err)
				}
				js = string(b)
				specJSON[spec] = js
			}
			cell.PartNodes[j], _ = nodeID(partIDs, partitionKey(sc, traceKey, js))
		}
		plan.Cells[i] = cell
	}
	plan.TraceBuilds += len(traceIDs)
	plan.PartitionBuilds += len(partIDs)
	return plan, nil
}

// DedupRatio is the fraction of the naive per-cell build work the plan
// eliminates by sharing: 1 - (planned builds / per-cell references),
// counting trace and partition builds together. 0 means nothing is
// shared; a 4-cell sweep over strategies of one scenario family
// approaches 0.75 on the trace axis.
func (p *SweepPlan) DedupRatio() float64 {
	refs := p.TraceRefs + p.PartitionRefs
	if refs == 0 {
		return 0
	}
	return 1 - float64(p.TraceBuilds+p.PartitionBuilds)/float64(refs)
}
