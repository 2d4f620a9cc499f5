package hierclust

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// The paper's core result is a comparison — four clustering strategies
// across machine sizes and failure regimes — so production users ask grid
// questions ("every strategy × five machine sizes × three failure mixes,
// ranked by P(catastrophe)"), not point queries. A Sweep makes the grid
// the unit of work: a base Scenario plus cartesian axes over scenario
// fields, compiled by PlanSweep into a deduplicated DAG whose shared trace
// builds and partitions are computed once, and executed by
// Pipeline.RunSweep with per-cell results byte-identical to evaluating
// each expanded scenario alone.

// SweepVersion is the sweep schema version this package writes and the
// newest it understands.
const SweepVersion = 1

// SweepMaxCells is the absolute expansion bound: a sweep whose axes
// multiply out to more cells fails validation. Servers typically impose a
// (much) tighter bound before planning.
const SweepMaxCells = 1 << 16

// Sweep declares a grid of scenario evaluations: a base scenario plus
// cartesian axes over scenario fields. Like Scenario, a Sweep encodes to
// stable JSON (EncodeSweep → DecodeSweep → EncodeSweep is byte-identical)
// and has a canonical key (SweepKey), so sweeps are data: stored, POSTed
// to hcserve's /v1/sweeps, and resumed by value.
type Sweep struct {
	// Version is the sweep schema version; 0 means SweepVersion.
	Version int `json:"version,omitempty"`
	// Name labels the sweep; expanded cell names are derived from the
	// base scenario's name, not this one.
	Name string `json:"name"`
	// Base is the scenario every cell starts from. Axis values override
	// its fields; fields no axis covers are shared by every cell.
	Base Scenario `json:"base"`
	// Axes are the cartesian dimensions. An empty axis leaves the base
	// field untouched; a sweep with all axes empty has exactly one cell,
	// the base itself.
	Axes SweepAxes `json:"axes"`
}

// SweepAxes are the sweepable scenario dimensions. Cells expand in
// row-major order with Machines outermost and Traces innermost; see
// (*Sweep).Cells for the cell-naming scheme.
type SweepAxes struct {
	// Machines varies the machine size. Each point sets machine.nodes
	// and optionally re-sizes the placement with it, so a machine-size
	// axis can hold rank density constant across sizes.
	Machines []MachinePoint `json:"machines,omitempty"`
	// Placements varies the placement policy ("block", "round-robin").
	Placements []string `json:"placements,omitempty"`
	// Strategies varies the strategy set: each entry is a complete
	// replacement for the base scenario's strategies slice.
	Strategies [][]StrategySpec `json:"strategies,omitempty"`
	// Mixes varies the failure model: each entry replaces the base
	// scenario's mix.
	Mixes []MixSpec `json:"mixes,omitempty"`
	// Traces varies the trace generation parameters: each point overrides
	// the non-zero fields of the base trace spec (source is never
	// overridden).
	Traces []TracePoint `json:"traces,omitempty"`
}

// MachinePoint is one machine-size axis value.
type MachinePoint struct {
	// Nodes is the allocation size (required, positive).
	Nodes int `json:"nodes"`
	// Ranks, when positive, replaces the placement rank count.
	Ranks int `json:"ranks,omitempty"`
	// ProcsPerNode, when positive, replaces the placement density.
	ProcsPerNode int `json:"procs_per_node,omitempty"`
}

// TracePoint is one trace-parameter axis value: a partial override of the
// base TraceSpec. Zero fields inherit the base value.
type TracePoint struct {
	Iterations  int    `json:"iterations,omitempty"`
	Pattern     string `json:"pattern,omitempty"`
	Width       int    `json:"width,omitempty"`
	BytesPerMsg int64  `json:"bytes_per_msg,omitempty"`
}

// CellCount returns the number of cells the axes multiply out to, without
// expanding them. Counts past SweepMaxCells saturate to SweepMaxCells+1:
// such a sweep can never validate, and saturating keeps the product from
// overflowing int (four 65536-entry axes would otherwise wrap to 0 and
// slip under every bound check).
func (sw *Sweep) CellCount() int {
	n := 1
	for _, axis := range sw.axisLens() {
		if axis <= 0 {
			continue
		}
		if axis > SweepMaxCells || n > SweepMaxCells/axis {
			return SweepMaxCells + 1
		}
		n *= axis
	}
	return n
}

// Validate checks the sweep: name, version, axis-value sanity, the
// expansion bound, and — by expanding — every cell. A sweep is valid
// exactly when every cell it expands to is a valid Scenario.
func (sw *Sweep) Validate() error {
	_, err := sw.Cells()
	return err
}

// Cells expands the sweep into its scenarios, in deterministic row-major
// axis order: Machines outermost, then Placements, Strategies, Mixes, and
// Traces innermost. Cell names derive from the base name plus one
// index-numbered segment per non-empty axis — "base/m0/p1/s0/x2/t0" with
// m=machines, p=placements, s=strategies, x=mixes, t=traces — so a cell's
// scenario (and therefore its CacheKey) can be written by hand: a sweep
// cell and the byte-identical hand-written scenario share one result-cache
// entry.
//
// The sweep is validated on the way: its header first, then every cell as
// the one expansion produces it, with the cell's name on its error. When the
// strategies axis is set the base may omit its own strategy list (the axis
// replaces it in every cell), so the base is validated only through its
// cells.
func (sw *Sweep) Cells() ([]*Scenario, error) {
	if sw == nil {
		return nil, fmt.Errorf("hierclust: nil sweep")
	}
	if sw.Version < 0 || sw.Version > SweepVersion {
		return nil, &SchemaVersionError{Version: sw.Version, Supported: SweepVersion}
	}
	if sw.Name == "" {
		return nil, fmt.Errorf("hierclust: sweep needs a name")
	}
	if sw.Base.Name == "" {
		return nil, fmt.Errorf("hierclust: sweep %q: base scenario needs a name", sw.Name)
	}
	for i, m := range sw.Axes.Machines {
		if m.Nodes <= 0 {
			return nil, fmt.Errorf("hierclust: sweep %q: machines[%d]: nodes must be positive", sw.Name, i)
		}
		if m.Ranks < 0 || m.ProcsPerNode < 0 {
			return nil, fmt.Errorf("hierclust: sweep %q: machines[%d]: negative ranks or procs_per_node", sw.Name, i)
		}
	}
	for i, tp := range sw.Axes.Traces {
		if tp.Iterations < 0 || tp.Width < 0 || tp.BytesPerMsg < 0 {
			return nil, fmt.Errorf("hierclust: sweep %q: traces[%d]: negative iterations, width or bytes_per_msg", sw.Name, i)
		}
	}
	nspecs, nlosses := 0, 0 // summed over the axis values
	for i, set := range sw.Axes.Strategies {
		if len(set) == 0 {
			return nil, fmt.Errorf("hierclust: sweep %q: strategies[%d]: empty strategy set", sw.Name, i)
		}
		nspecs += len(set)
	}
	for _, mix := range sw.Axes.Mixes {
		nlosses += len(mix.NodeLoss)
	}
	n := sw.CellCount()
	if n > SweepMaxCells {
		return nil, fmt.Errorf("hierclust: sweep %q: axes multiply out past the %d-cell bound", sw.Name, SweepMaxCells)
	}

	machines, placements, strategies := orInherit(sw.Axes.Machines), orInherit(sw.Axes.Placements), orInherit(sw.Axes.Strategies)
	mixes, traces, lens := orInherit(sw.Axes.Mixes), orInherit(sw.Axes.Traces), sw.axisLens()

	// Each cell owns disjoint windows of these slabs, shared with no one. A
	// value of an axis k long recurs in n/k cells, so each slab is made once,
	// at its exact size.
	out, scs := make([]*Scenario, 0, n), make([]Scenario, 0, n)
	specs := make([]StrategySpec, 0, n/max(lens[2], 1)*nspecs)
	mixSpecs, losses := make([]MixSpec, 0, min(lens[3], 1)*n), make([]float64, 0, n/max(lens[3], 1)*nlosses)
	for mi, m := range machines {
		for pi, pol := range placements {
			for si, set := range strategies {
				for xi, mix := range mixes {
					for ti, tp := range traces {
						sc := sw.Base // value copy; slices replaced below, never mutated
						sc.Version = ScenarioVersion
						sc.Name = cellName(sw.Base.Name, lens, [5]int{mi, pi, si, xi, ti})
						// An axis point's zero field keeps the base's value.
						sc.Machine.Nodes = cmp.Or(m.Nodes, sc.Machine.Nodes)
						sc.Placement.Ranks = cmp.Or(m.Ranks, sc.Placement.Ranks)
						sc.Placement.ProcsPerNode = cmp.Or(m.ProcsPerNode, sc.Placement.ProcsPerNode)
						sc.Placement.Policy = cmp.Or(pol, sc.Placement.Policy)
						if set != nil {
							sc.Strategies = window(&specs, set...)
						}
						if lens[3] > 0 {
							own := mix
							own.NodeLoss = window(&losses, mix.NodeLoss...)
							sc.Mix = &window(&mixSpecs, own)[0]
						}
						sc.Trace.Iterations = cmp.Or(tp.Iterations, sc.Trace.Iterations)
						sc.Trace.Pattern = cmp.Or(tp.Pattern, sc.Trace.Pattern)
						sc.Trace.Width = cmp.Or(tp.Width, sc.Trace.Width)
						sc.Trace.BytesPerMsg = cmp.Or(tp.BytesPerMsg, sc.Trace.BytesPerMsg)
						if err := sc.Validate(); err != nil {
							return nil, fmt.Errorf("hierclust: sweep %q: cell %q: %w", sw.Name, sc.Name, err)
						}
						out = append(out, &window(&scs, sc)[0])
					}
				}
			}
		}
	}
	return out, nil
}

// window appends vs to *slab and returns them, capacity-capped: appending
// to the window reallocates rather than overwrite the next one.
func window[T any](slab *[]T, vs ...T) []T {
	*slab = append(*slab, vs...)
	return (*slab)[len(*slab)-len(vs) : len(*slab) : len(*slab)]
}

// orInherit returns axis, or for an empty one the zero value: "inherit".
func orInherit[T any](axis []T) []T {
	if len(axis) == 0 {
		return make([]T, 1)
	}
	return axis
}

// axisLens returns the axis lengths in expansion order (m, p, s, x, t).
func (sw *Sweep) axisLens() [5]int {
	return [5]int{len(sw.Axes.Machines), len(sw.Axes.Placements),
		len(sw.Axes.Strategies), len(sw.Axes.Mixes), len(sw.Axes.Traces)}
}

// cellName renders a cell's name in one allocation: base, then a
// "/<tag><index>" segment per non-empty axis (lens, idx in axisLens order).
func cellName(base string, lens, idx [5]int) string {
	var b strings.Builder
	b.Grow(len(base) + len(lens)*len("/m65535")) // an index is below SweepMaxCells
	b.WriteString(base)
	for k, n := range lens {
		if n > 0 {
			var digits [8]byte
			b.WriteByte('/')
			b.WriteByte("mpsxt"[k])
			b.Write(strconv.AppendInt(digits[:0], int64(idx[k]), 10))
		}
	}
	return b.String()
}

// EncodeSweep renders the sweep as indented JSON with a stable field order
// and explicit schema versions (the sweep's and the embedded base
// scenario's). Encoding the result of DecodeSweep reproduces the input
// byte for byte for any document this function produced.
func EncodeSweep(sw *Sweep) ([]byte, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	versioned := *sw
	versioned.Version = SweepVersion
	versioned.Base.Version = ScenarioVersion
	b, err := json.MarshalIndent(&versioned, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeSweep parses sweep JSON, rejecting unknown fields anywhere in the
// document (a typo'd axis name must fail loudly, not silently sweep
// nothing). Version-less documents are implicit version 1.
func DecodeSweep(data []byte) (*Sweep, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sw Sweep
	if err := dec.Decode(&sw); err != nil {
		return nil, fmt.Errorf("hierclust: decoding sweep: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("hierclust: trailing data after sweep JSON")
	}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	sw.Version = SweepVersion
	sw.Base.Version = ScenarioVersion
	return &sw, nil
}

// SweepKey returns the canonical compact encoding that identifies the
// sweep: two sweeps with equal keys expand to identical cells. Schema
// versions are normalized into the key, mirroring Scenario.CacheKey.
func (sw *Sweep) SweepKey() (string, error) {
	if err := sw.Validate(); err != nil {
		return "", err
	}
	versioned := *sw
	versioned.Version = SweepVersion
	versioned.Base.Version = ScenarioVersion
	return marshalString(&versioned)
}
