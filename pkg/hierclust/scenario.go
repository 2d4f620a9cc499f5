package hierclust

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// ScenarioVersion is the schema version this package writes and the newest
// it understands. Documents without a version field are implicit version 1
// (the schema shipped before the field existed) and decode unchanged;
// documents claiming a newer version are rejected with a
// *SchemaVersionError rather than misread.
const ScenarioVersion = 1

// SchemaVersionError reports a scenario document whose declared schema
// version this package does not understand. Callers can errors.As for it to
// distinguish "newer schema" from plain malformed input.
type SchemaVersionError struct {
	// Version is the version the document declared.
	Version int
	// Supported is the newest version this package decodes.
	Supported int
}

func (e *SchemaVersionError) Error() string {
	return fmt.Sprintf("hierclust: scenario schema version %d not supported (this package understands versions up to %d)",
		e.Version, e.Supported)
}

// SizeError reports a scenario whose rank or node count exceeds what the
// pipeline will allocate: the trace rank bound (trace.DefaultMaxRanks, or a
// file source's max_ranks) capped at the int32 id range. Validate returns it
// before anything of that size is built; hcserve answers it 422.
type SizeError struct {
	Scenario   string
	Field      string // "placement.ranks" or "machine.nodes"
	Count, Max int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("hierclust: scenario %q: %s %d exceeds the bound %d", e.Scenario, e.Field, e.Count, e.Max)
}

// Scenario declaratively describes one evaluation: a machine, a placement
// of application ranks onto it, a trace source, the strategies to compare,
// and optionally a failure mix and baseline (both defaulting to the paper's
// calibration). Scenarios encode to stable JSON — EncodeScenario →
// DecodeScenario → EncodeScenario is byte-identical — so experiments are
// data: they can be stored, diffed, POSTed to hcserve, and cached by value.
type Scenario struct {
	// Version is the schema version; 0 means ScenarioVersion (documents
	// predating the field are implicit version 1). EncodeScenario and
	// CacheKey always write the explicit current version, so stored
	// documents are self-describing.
	Version int `json:"version,omitempty"`
	// Name labels the scenario in results.
	Name string `json:"name"`
	// Machine selects and sizes the machine model.
	Machine MachineSpec `json:"machine"`
	// Placement maps ranks onto the machine.
	Placement PlacementSpec `json:"placement"`
	// Trace selects the communication-matrix source.
	Trace TraceSpec `json:"trace"`
	// Strategies lists the clustering strategies to evaluate, in output
	// order.
	Strategies []StrategySpec `json:"strategies"`
	// Mix overrides the failure-type distribution; nil uses the paper's
	// calibrated DefaultMix.
	Mix *MixSpec `json:"mix,omitempty"`
	// Baseline overrides the requirement envelope; nil uses the paper's
	// DefaultBaseline.
	Baseline *BaselineSpec `json:"baseline,omitempty"`
}

// MachineSpec selects a machine model. Model "tsubame2" (the default) uses
// the paper's Table I constants; Nodes restricts it to a job allocation.
type MachineSpec struct {
	// Model names the base machine: "" or "tsubame2". When Nodes exceeds
	// the model's node count the machine is grown, mirroring the scaling
	// experiments' synthetic rigs.
	Model string `json:"model,omitempty"`
	// Nodes is the allocation size; 0 uses the full machine.
	Nodes int `json:"nodes,omitempty"`
}

// PlacementSpec maps ranks onto the machine's nodes.
type PlacementSpec struct {
	// Policy is "block" (default: consecutive ranks share a node, the
	// paper's topology-aware placement) or "round-robin".
	Policy string `json:"policy,omitempty"`
	// Ranks is the application process count.
	Ranks int `json:"ranks"`
	// ProcsPerNode is the ranks-per-node density for block placement and
	// the used-node divisor for round-robin.
	ProcsPerNode int `json:"procs_per_node"`
}

// TraceSpec selects the communication-matrix source.
type TraceSpec struct {
	// Source is "tsunami" (trace the stencil application on the simulated
	// MPI runtime), "synthetic" (generate a stencil trace directly in
	// sparse form — the only source that scales past ~4k ranks), or
	// "file" (read a serialized HCTR trace).
	Source string `json:"source"`
	// Iterations is the traced or generated exchange-round count
	// (tsunami default 20, synthetic default 100).
	Iterations int `json:"iterations,omitempty"`
	// Pattern is the synthetic structure: "stencil1d" (default) or
	// "stencil2d".
	Pattern string `json:"pattern,omitempty"`
	// Width is the stencil2d grid width; 0 derives it from the placement
	// density so horizontal exchange stays intra-node, like the scaling
	// experiment's rigs.
	Width int `json:"width,omitempty"`
	// BytesPerMsg overrides the synthetic per-message payload.
	BytesPerMsg int64 `json:"bytes_per_msg,omitempty"`
	// Path locates the serialized trace for source "file".
	Path string `json:"path,omitempty"`
	// MaxRanks raises the file reader's rank-count plausibility bound
	// beyond the 2^22 default.
	MaxRanks int `json:"max_ranks,omitempty"`
}

// MixSpec is the declarative (JSON) form of the reliability failure mix.
type MixSpec struct {
	Transient       float64   `json:"transient"`
	NodeLoss        []float64 `json:"node_loss"`
	PairCorrelation float64   `json:"pair_correlation,omitempty"`
}

// Mix converts the spec to the model's Mix (normalized).
func (s *MixSpec) Mix() Mix { return s.mixInto(nil) }

// mixInto is Mix with the normalized node-loss tail appended to loss.
func (s *MixSpec) mixInto(loss []float64) Mix {
	if s == nil {
		return reliability.DefaultMix()
	}
	m := Mix{Transient: s.Transient, NodeLoss: append(loss, s.NodeLoss...), PairCorrelation: s.PairCorrelation}
	m.Normalize()
	return m
}

// BaselineSpec is the declarative (JSON) form of the requirement envelope.
type BaselineSpec struct {
	MaxLoggedFraction   float64 `json:"max_logged_fraction"`
	MaxRecoveryFraction float64 `json:"max_recovery_fraction"`
	MaxEncodeSecPerGB   float64 `json:"max_encode_sec_per_gb"`
	MaxCatastropheProb  float64 `json:"max_catastrophe_prob"`
}

// Baseline converts the spec to the evaluator's Baseline.
func (s *BaselineSpec) Baseline() Baseline {
	if s == nil {
		return DefaultBaseline()
	}
	return Baseline(*s)
}

// Validate checks everything that can be checked without building the
// machine: names, source kinds, strategy kinds, and arithmetic constraints.
func (s *Scenario) Validate() error { return s.validate(true) }

// validate is Validate, which checks the strategy list only when
// strategies is set: Pipeline.Trace scores no strategy.
func (s *Scenario) validate(strategies bool) error {
	if s == nil {
		return fmt.Errorf("hierclust: nil scenario")
	}
	if s.Version < 0 || s.Version > ScenarioVersion {
		return &SchemaVersionError{Version: s.Version, Supported: ScenarioVersion}
	}
	if s.Name == "" {
		return fmt.Errorf("hierclust: scenario needs a name")
	}
	switch s.Machine.Model {
	case "", "tsubame2":
	default:
		return fmt.Errorf("hierclust: scenario %q: unknown machine model %q", s.Name, s.Machine.Model)
	}
	if s.Machine.Nodes < 0 {
		return fmt.Errorf("hierclust: scenario %q: negative node count %d", s.Name, s.Machine.Nodes)
	}
	switch s.Placement.Policy {
	case "", "block", "round-robin":
	default:
		return fmt.Errorf("hierclust: scenario %q: unknown placement policy %q", s.Name, s.Placement.Policy)
	}
	if s.Placement.Ranks <= 0 {
		return fmt.Errorf("hierclust: scenario %q: placement needs a positive rank count", s.Name)
	}
	if s.Placement.ProcsPerNode <= 0 {
		return fmt.Errorf("hierclust: scenario %q: placement needs positive procs_per_node", s.Name)
	}
	// Fields that don't apply to the chosen source, or hold a negative
	// count, are rejected, not ignored: a user who sets them believes they
	// tuned the trace, and the dead fields would also split the result
	// cache on meaningless keys.
	t := s.Trace
	switch t.Source {
	case "tsunami", "synthetic":
	case "file":
		if t.Path == "" {
			return fmt.Errorf("hierclust: scenario %q: trace source \"file\" needs a path", s.Name)
		}
	default:
		return fmt.Errorf("hierclust: scenario %q: unknown trace source %q (want tsunami, synthetic, or file)", s.Name, t.Source)
	}
	for _, f := range [...]struct {
		name, sources string
		set, negative bool
	}{
		{"iterations", "tsunami synthetic", t.Iterations != 0, t.Iterations < 0},
		{"pattern", "synthetic", t.Pattern != "", false},
		{"width", "synthetic", t.Width != 0, t.Width < 0},
		{"bytes_per_msg", "synthetic", t.BytesPerMsg != 0, t.BytesPerMsg < 0},
		{"path", "file", t.Path != "", false},
		{"max_ranks", "file", t.MaxRanks != 0, t.MaxRanks < 0},
	} {
		if f.set && !strings.Contains(f.sources, t.Source) {
			return fmt.Errorf("hierclust: scenario %q: trace field %s does not apply to source %q", s.Name, f.name, t.Source)
		}
		if f.negative {
			return fmt.Errorf("hierclust: scenario %q: trace field %s is negative", s.Name, f.name)
		}
	}
	if t.Pattern != "stencil2d" && t.Width != 0 { // only synthetic gets here with a width
		return fmt.Errorf("hierclust: scenario %q: trace field width applies only to pattern \"stencil2d\"", s.Name)
	}
	// The trace reader's bound (a file source's own, or the default), capped
	// at the id range; ranks and nodes are allocated per id before any build.
	bound := min(cmp.Or(s.Trace.MaxRanks, trace.DefaultMaxRanks), topology.MaxIDs)
	if s.Placement.Ranks > bound {
		return &SizeError{s.Name, "placement.ranks", s.Placement.Ranks, bound}
	}
	if s.Machine.Nodes > bound {
		return &SizeError{s.Name, "machine.nodes", s.Machine.Nodes, bound}
	}
	switch s.Trace.Pattern {
	case "", "stencil1d", "stencil2d":
	default:
		return fmt.Errorf("hierclust: scenario %q: unknown synthetic pattern %q", s.Name, s.Trace.Pattern)
	}
	if strategies && len(s.Strategies) == 0 {
		return fmt.Errorf("hierclust: scenario %q: needs at least one strategy", s.Name)
	}
	pairs := topology.Tsubame2().PowerPairs // the one machine model
	for i := 0; strategies && i < len(s.Strategies); i++ {
		if err := s.Strategies[i].check(pairs); err != nil {
			return fmt.Errorf("hierclust: scenario %q: strategy %d: %w", s.Name, i, err)
		}
	}
	if s.Mix != nil {
		var loss [16]float64 // the normalized copy of a tail this long stays on the stack
		m := s.Mix.mixInto(loss[:0])
		if err := m.Validate(); err != nil {
			return fmt.Errorf("hierclust: scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// resolvePlacement builds the machine model — the named base, subset or
// grown to the requested allocation — and the rank→node mapping on it.
func (s *Scenario) resolvePlacement() (placed, error) {
	mach := topology.Tsubame2()
	if nodes := s.Machine.Nodes; nodes > mach.Nodes {
		grown := *mach
		grown.Nodes = nodes
		var name [64]byte // "<model>-scaled[<nodes>]", rendered in the one string
		grown.Name = string(append(strconv.AppendInt(append(append(name[:0], mach.Name...), "-scaled["...), int64(nodes), 10), ']'))
		mach = &grown
	} else if nodes != 0 && nodes < mach.Nodes {
		var err error
		if mach, err = mach.Subset(nodes); err != nil {
			return placed{}, err
		}
	}
	var placement *Placement
	var err error
	switch s.Placement.Policy {
	case "", "block":
		placement, err = topology.Block(mach, s.Placement.Ranks, s.Placement.ProcsPerNode)
	case "round-robin":
		used := (s.Placement.Ranks + s.Placement.ProcsPerNode - 1) / s.Placement.ProcsPerNode
		placement, err = topology.RoundRobin(mach, s.Placement.Ranks, used)
	default:
		err = fmt.Errorf("hierclust: unknown placement policy %q", s.Placement.Policy)
	}
	return placed{mach, placement}, err
}

// EncodeScenario renders the scenario as indented JSON with a stable field
// order and an explicit schema version. Encoding the result of
// DecodeScenario reproduces the input byte for byte for any document this
// function produced; a legacy version-less document re-encodes with the
// explicit "version" field inserted (and is otherwise unchanged).
func EncodeScenario(s *Scenario) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	versioned := *s
	versioned.Version = ScenarioVersion
	b, err := json.MarshalIndent(&versioned, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeScenario parses scenario JSON, rejecting unknown fields — a typo'd
// option must fail loudly, not silently evaluate the default. This is the
// schema migration point: documents without a version field are implicit
// version 1 and are upgraded to the explicit current version; documents
// declaring an unsupported version fail with a *SchemaVersionError.
func DecodeScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("hierclust: decoding scenario: %w", err)
	}
	// A second document in the same payload is almost certainly a mistake.
	if dec.More() {
		return nil, fmt.Errorf("hierclust: trailing data after scenario JSON")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.Version = ScenarioVersion // implicit v1 documents upgrade on decode
	return &s, nil
}

// CacheKey returns the canonical compact encoding used to key scenario
// result caches: two scenarios with equal keys evaluate identically. The
// schema version is normalized into the key, so implicit-v1 and explicit-v1
// forms of the same scenario share a cache entry.
func (s *Scenario) CacheKey() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	return s.cacheKey()
}

// cacheKey is CacheKey for a scenario the caller has already validated.
func (s *Scenario) cacheKey() (string, error) {
	if s.Version != ScenarioVersion { // an expanded sweep cell already is
		v := *s
		v.Version = ScenarioVersion
		s = &v
	}
	return marshalString(s)
}

// marshalString is json.Marshal's encoding of v as a string that shares the
// marshalled bytes, which nothing else holds or writes.
func marshalString(v any) (string, error) {
	b, err := json.Marshal(v)
	return unsafe.String(unsafe.SliceData(b), len(b)), err
}
