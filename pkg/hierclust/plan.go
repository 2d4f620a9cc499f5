package hierclust

import "fmt"

// PlanSweep compiles a sweep into its deduplicated evaluation DAG. The
// plan is pure data — which cells exist, in what order, and which of their
// intermediates (placements, trace builds, clustering/partition builds with
// their score profiles) are shared — so callers can inspect the dedup ratio,
// bound job admission, and report progress before any work runs.
// Pipeline.RunSweep executes it.

// SweepPlan is the compiled form of a sweep: the expanded cells in
// deterministic order plus the shared-node tables.
type SweepPlan struct {
	// Sweep is the declaration the plan was compiled from; nil from PlanScenarios.
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
	// clustering builds (one ref per strategy per cell). A built-in flat
	// strategy's clustering is shared across traces, even "file" ones.
	PartitionBuilds int
	PartitionRefs   int
	// nodes sizes the executor's placement, trace, partition and logged tables.
	nodes [4]int
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
	// loggedNodes holds, per strategy, the shared node of the clustering's
	// logged fraction over the cell's trace, or -1 for a private one.
	loggedNodes []int
}

// traceKey identifies a shareable trace by what Scenario.TraceKey renders.
type traceKey struct {
	ranks int
	TraceSpec
}

// partitionKey identifies the clustering a strategy spec (as compact JSON)
// builds in a cell: equal keys build bit-identical clusterings. trace is
// the cell's trace node, as a clustering may read the matrix, or -1 for a
// built-in flat kind, which cannot (RegisterStrategy cannot shadow one).
type partitionKey struct {
	place, trace int
	spec         string
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
	plan, err := PlanScenarios(cells)
	if plan != nil {
		plan.Sweep = sw
	}
	return plan, err
}

// PlanScenarios compiles scenarios — a sweep without axes — into a plan whose
// cell i evaluates cells[i], sharing nodes exactly as sweep cells do. Each
// scenario must already be valid (DecodeScenario and Sweep.Cells return
// valid ones).
func PlanScenarios(cells []*Scenario) (*SweepPlan, error) {
	plan := &SweepPlan{Cells: make([]PlannedCell, len(cells)), TraceRefs: len(cells)}
	for _, sc := range cells {
		plan.PartitionRefs += len(sc.Strategies)
	}
	// Every cell's partition and logged-fraction node ids, in one slab.
	ids := make([]int, 2*plan.PartitionRefs)
	placeIDs := map[placementKey]int{}
	traceIDs := map[traceKey]int{}
	partIDs := map[partitionKey]int{}
	loggedIDs := map[[2]int]int{} // (partition node, trace node)
	// A strategies-axis value reaches every cell that uses it as the same
	// spec values (Hier pointers included), so one marshal serves them all.
	specJSON := map[StrategySpec]string{}
	for i, sc := range cells {
		key, err := sc.cacheKey()
		if err != nil {
			return nil, fmt.Errorf("hierclust: scenario %q: %w", sc.Name, err)
		}
		cell := PlannedCell{Index: i, Scenario: sc, CacheKey: key, TraceNode: -1, TraceBuilder: true}
		cell.PlacementNode, _ = nodeID(placeIDs, placementKey{sc.Machine, sc.Placement})
		// A "file" trace is not a value (see TraceKey): each cell reads its own.
		if sc.Trace.Source == "file" {
			plan.TraceBuilds++ // private build
		} else {
			var seen bool
			cell.TraceNode, seen = nodeID(traceIDs, traceKey{sc.Placement.Ranks, sc.resolvedTrace()})
			cell.TraceBuilder = !seen
		}
		n := len(sc.Strategies)
		cell.PartNodes, cell.loggedNodes, ids = ids[:n:n], ids[n:2*n:2*n], ids[2*n:]
		for j, spec := range sc.Strategies {
			cell.PartNodes[j], cell.loggedNodes[j] = -1, -1
			pk := partitionKey{place: cell.PlacementNode, trace: cell.TraceNode}
			if flatKinds[spec.Kind] {
				pk.trace = -1
			} else if pk.trace < 0 {
				plan.PartitionBuilds++ // private build over a private trace
				continue
			}
			var ok bool
			if pk.spec, ok = specJSON[spec]; !ok {
				if pk.spec, err = marshalString(spec); err != nil {
					return nil, fmt.Errorf("hierclust: scenario %q: %w", sc.Name, err)
				}
				specJSON[spec] = pk.spec
			}
			cell.PartNodes[j], _ = nodeID(partIDs, pk)
			if cell.TraceNode >= 0 {
				cell.loggedNodes[j], _ = nodeID(loggedIDs, [2]int{cell.PartNodes[j], cell.TraceNode})
			}
		}
		plan.Cells[i] = cell
	}
	plan.nodes = [4]int{len(placeIDs), len(traceIDs), len(partIDs), len(loggedIDs)}
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
