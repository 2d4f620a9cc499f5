package hierclust

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestScenarioRoundTrip pins the JSON stability contract: encode → decode →
// encode is byte-identical for every built-in scenario and for a scenario
// exercising every optional field.
func TestScenarioRoundTrip(t *testing.T) {
	scenarios := BuiltinScenarios()
	scenarios = append(scenarios, &Scenario{
		Name:      "kitchen-sink",
		Machine:   MachineSpec{Model: "tsubame2", Nodes: 8192},
		Placement: PlacementSpec{Policy: "round-robin", Ranks: 1024, ProcsPerNode: 16},
		Trace: TraceSpec{
			Source: "synthetic", Pattern: "stencil2d", Width: 32,
			Iterations: 50, BytesPerMsg: 4096,
		},
		Strategies: []StrategySpec{
			{Kind: "naive", Size: 16},
			{Kind: "hierarchical", Hier: &HierSpec{
				MinNodesPerL1: 8, TargetNodesPerL1: 8, MaxNodesPerL1: 64,
				SubgroupNodes: 4, AlignPowerPairs: true, Multilevel: true,
			}},
		},
		Mix:      &MixSpec{Transient: 0.05, NodeLoss: []float64{0.9, 0.05}, PairCorrelation: 0.5},
		Baseline: &BaselineSpec{MaxLoggedFraction: 0.3, MaxRecoveryFraction: 0.3, MaxEncodeSecPerGB: 120, MaxCatastropheProb: 1e-2},
	})
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			enc1, err := EncodeScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeScenario(enc1)
			if err != nil {
				t.Fatal(err)
			}
			enc2, err := EncodeScenario(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("encode→decode→encode not byte-stable:\nfirst:\n%s\nsecond:\n%s", enc1, enc2)
			}
			key1, err := sc.CacheKey()
			if err != nil {
				t.Fatal(err)
			}
			key2, err := dec.CacheKey()
			if err != nil {
				t.Fatal(err)
			}
			if key1 != key2 {
				t.Fatalf("cache keys diverge across a round trip:\n%s\n%s", key1, key2)
			}
		})
	}
}

// TestHierSpecEncoding pins the "hier" object's bytes, which are part of
// every scenario document and CacheKey that carries one: the field names,
// their order, and omitempty on each.
func TestHierSpecEncoding(t *testing.T) {
	for _, tc := range []struct {
		h    HierSpec
		want string
	}{
		{HierSpec{}, `{}`},
		{HierSpec{MinNodesPerL1: 8, TargetNodesPerL1: 8, MaxNodesPerL1: 64, SubgroupNodes: 4, AlignPowerPairs: true, Multilevel: true},
			`{"min_nodes_per_l1":8,"target_nodes_per_l1":8,"max_nodes_per_l1":64,"subgroup_nodes":4,"align_power_pairs":true,"multilevel":true}`},
	} {
		got, err := json.Marshal(tc.h)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%+v encodes as %s, want %s", tc.h, got, tc.want)
		}
	}
}

// TestDecodeScenarioRejectsUnknownFields: a typo'd option must fail loudly
// instead of silently evaluating the default.
// The partitioner's tuning knobs are not part of the schema either.
func TestDecodeScenarioRejectsUnknownFields(t *testing.T) {
	for field, doc := range map[string]string{
		"iterattions": `{
			"name": "typo",
			"machine": {"nodes": 32},
			"placement": {"ranks": 256, "procs_per_node": 8},
			"trace": {"source": "synthetic", "iterattions": 50},
			"strategies": [{"kind": "hierarchical"}]
		}`,
		"coarsen_threshold": `{
			"name": "knob",
			"machine": {"nodes": 32},
			"placement": {"ranks": 256, "procs_per_node": 8},
			"trace": {"source": "synthetic"},
			"strategies": [{"kind": "hierarchical", "hier": {"multilevel": true, "coarsen_threshold": 64}}]
		}`,
	} {
		if _, err := DecodeScenario([]byte(doc)); err == nil {
			t.Errorf("decoded a scenario with the unknown field %s", field)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("error does not name the unknown field %s: %v", field, err)
		}
	}
}

func TestDecodeScenarioRejectsTrailingData(t *testing.T) {
	sc := BuiltinScenarios()[0]
	doc, err := EncodeScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScenario(append(doc, []byte("{}")...)); err == nil {
		t.Fatal("accepted trailing data after the scenario document")
	}
}

func TestScenarioValidate(t *testing.T) {
	valid := func() *Scenario {
		return &Scenario{
			Name:       "v",
			Machine:    MachineSpec{Nodes: 32},
			Placement:  PlacementSpec{Ranks: 256, ProcsPerNode: 8},
			Trace:      TraceSpec{Source: "synthetic"},
			Strategies: []StrategySpec{{Kind: "hierarchical"}},
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }},
		{"bad machine model", func(s *Scenario) { s.Machine.Model = "summit" }},
		{"bad placement policy", func(s *Scenario) { s.Placement.Policy = "scatter" }},
		{"zero ranks", func(s *Scenario) { s.Placement.Ranks = 0 }},
		{"zero ppn", func(s *Scenario) { s.Placement.ProcsPerNode = 0 }},
		{"bad trace source", func(s *Scenario) { s.Trace.Source = "pcap" }},
		{"file without path", func(s *Scenario) { s.Trace.Source = "file" }},
		{"bad pattern", func(s *Scenario) { s.Trace.Pattern = "torus" }},
		{"no strategies", func(s *Scenario) { s.Strategies = nil }},
		{"tsunami with synthetic fields", func(s *Scenario) {
			s.Trace = TraceSpec{Source: "tsunami", Pattern: "stencil2d", BytesPerMsg: 4096}
		}},
		{"synthetic with file fields", func(s *Scenario) {
			s.Trace = TraceSpec{Source: "synthetic", Path: "/tmp/t.hctr"}
		}},
		{"file with synthetic fields", func(s *Scenario) {
			s.Trace = TraceSpec{Source: "file", Path: "/tmp/t.hctr", Iterations: 10}
		}},
		{"width without stencil2d", func(s *Scenario) {
			s.Trace = TraceSpec{Source: "synthetic", Width: 32}
		}},
		{"unknown strategy kind", func(s *Scenario) { s.Strategies = []StrategySpec{{Kind: "magic"}} }},
		{"negative mix", func(s *Scenario) { s.Mix = &MixSpec{Transient: -1} }},
		{"negative iterations", func(s *Scenario) { s.Trace.Iterations = -3 }},
		{"negative width", func(s *Scenario) {
			s.Trace = TraceSpec{Source: "synthetic", Pattern: "stencil2d", Width: -4}
		}},
		{"negative bytes_per_msg", func(s *Scenario) { s.Trace.BytesPerMsg = -7 }},
		{"negative max_ranks", func(s *Scenario) {
			s.Trace = TraceSpec{Source: "file", Path: "/tmp/t.hctr", MaxRanks: -1}
		}},
		// A negative hier field would build the default clustering under
		// another name and cache key; a max below the resolved min or
		// target would fail only in the build.
		{"negative min_nodes_per_l1", func(s *Scenario) { s.Strategies[0].Hier = &HierSpec{MinNodesPerL1: -3} }},
		{"negative target_nodes_per_l1", func(s *Scenario) { s.Strategies[0].Hier = &HierSpec{TargetNodesPerL1: -1} }},
		{"negative max_nodes_per_l1", func(s *Scenario) { s.Strategies[0].Hier = &HierSpec{MaxNodesPerL1: -1} }},
		{"negative subgroup_nodes", func(s *Scenario) { s.Strategies[0].Hier = &HierSpec{SubgroupNodes: -2} }},
		{"max below the default min", func(s *Scenario) { s.Strategies[0].Hier = &HierSpec{MaxNodesPerL1: 3} }},
		{"max below min", func(s *Scenario) { s.Strategies[0].Hier = &HierSpec{MinNodesPerL1: 8, MaxNodesPerL1: 6} }},
		{"max below target", func(s *Scenario) { s.Strategies[0].Hier = &HierSpec{TargetNodesPerL1: 8, MaxNodesPerL1: 6} }},
		// Aligned to power pairs, the build halves min and target up and
		// the max down: an odd max equal to the min falls below it (the
		// build failed with "MaxSize 2 below TargetSize 3"), and a max of 1
		// halves to 0, which the partitioner reads as no cap.
		{"paired max below paired min", func(s *Scenario) {
			s.Strategies[0].Hier = &HierSpec{AlignPowerPairs: true, MinNodesPerL1: 5, MaxNodesPerL1: 5}
		}},
		{"paired max halves to zero", func(s *Scenario) {
			s.Strategies[0].Hier = &HierSpec{AlignPowerPairs: true, MinNodesPerL1: 1, TargetNodesPerL1: 1, MaxNodesPerL1: 1}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mutate(s)
			if err := s.Validate(); err == nil {
				t.Fatalf("scenario with %s validated", tc.name)
			}
		})
	}
}

// TestScenarioSizeBound: a rank or node count past the trace rank bound (or
// a file source's own max_ranks, capped at the int32 id range) is a
// *SizeError from every library entry point, before anything is allocated.
func TestScenarioSizeBound(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:       "big",
			Machine:    MachineSpec{Nodes: 1 << 20},
			Placement:  PlacementSpec{Ranks: 1 << 22, ProcsPerNode: 4},
			Trace:      TraceSpec{Source: "synthetic"},
			Strategies: []StrategySpec{{Kind: "naive"}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("ranks at the bound rejected: %v", err)
	}
	huge := base()
	huge.Placement.Ranks = 1 << 30
	var se *SizeError
	if err := huge.Validate(); !errors.As(err, &se) || se.Field != "placement.ranks" || se.Max != 1<<22 {
		t.Fatalf("Validate(2^30 ranks) = %v, want a *SizeError on placement.ranks at 2^22", err)
	}
	if _, err := NewPipeline().Run(context.Background(), huge); !errors.As(err, &se) {
		t.Fatalf("Pipeline.Run(2^30 ranks) = %v, want a *SizeError", err)
	}
	doc, err := json.Marshal(huge)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScenario(doc); !errors.As(err, &se) {
		t.Fatalf("DecodeScenario(2^30 ranks) = %v, want a *SizeError", err)
	}
	sw := &Sweep{Name: "sw", Base: *base(), Axes: SweepAxes{Machines: []MachinePoint{{Nodes: 16, Ranks: 1 << 30}}}}
	if err := sw.Validate(); !errors.As(err, &se) {
		t.Fatalf("sweep with a 2^30-rank machine point: %v, want a *SizeError", err)
	}

	nodes := base()
	nodes.Machine.Nodes = 1<<22 + 1
	if err := nodes.Validate(); !errors.As(err, &se) || se.Field != "machine.nodes" {
		t.Fatalf("Validate(2^22+1 nodes) = %v, want a *SizeError on machine.nodes", err)
	}
	file := base()
	file.Placement.Ranks = 1 << 23
	file.Trace = TraceSpec{Source: "file", Path: "t.hctr", MaxRanks: 1 << 23}
	if err := file.Validate(); err != nil {
		t.Fatalf("file source within its own max_ranks rejected: %v", err)
	}
	file.Trace.MaxRanks, file.Placement.Ranks = 1<<40, 1<<31
	if err := file.Validate(); !errors.As(err, &se) || se.Max != math.MaxInt32 {
		t.Fatalf("Validate(2^31 ranks, max_ranks 2^40) = %v, want a *SizeError at the int32 bound", err)
	}
}

func TestBuiltinScenarioLookup(t *testing.T) {
	sc, err := BuiltinScenario("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Placement.Ranks != 256 {
		t.Fatalf("quickstart ranks = %d, want 256", sc.Placement.Ranks)
	}
	if _, err := BuiltinScenario("nope"); err == nil {
		t.Fatal("unknown builtin did not error")
	}
	for _, sc := range BuiltinScenarios() {
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", sc.Name, err)
		}
	}
}

// TestEncodedScenarioCompactsToCacheKey: the compact form of an
// EncodeScenario document is its scenario's CacheKey, so a body made by
// EncodeScenario is found in hcserve's result LRU without being decoded.
func TestEncodedScenarioCompactsToCacheKey(t *testing.T) {
	for _, sc := range append(BuiltinScenarios(), syntheticScenario()) {
		doc, err := EncodeScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			t.Fatal(err)
		}
		key, err := sc.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if compact.String() != key {
			t.Errorf("%s: compact document\n%s\nis not the cache key\n%s", sc.Name, compact.Bytes(), key)
		}
	}
}

// TestScenarioVersionMigration pins the schema versioning contract:
// documents without a version field are implicit v1 and upgrade on decode,
// encoded documents always carry the explicit version, and both forms share
// one cache key.
func TestScenarioVersionMigration(t *testing.T) {
	implicit := `{
		"name": "legacy",
		"machine": {"nodes": 32},
		"placement": {"ranks": 256, "procs_per_node": 8},
		"trace": {"source": "synthetic"},
		"strategies": [{"kind": "hierarchical"}]
	}`
	dec, err := DecodeScenario([]byte(implicit))
	if err != nil {
		t.Fatalf("implicit-v1 document rejected: %v", err)
	}
	if dec.Version != ScenarioVersion {
		t.Fatalf("decoded version = %d, want %d (implicit v1 upgrades)", dec.Version, ScenarioVersion)
	}
	enc, err := EncodeScenario(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), "\"version\": 1") {
		t.Fatalf("encoded scenario lacks explicit version:\n%s", enc)
	}
	explicit := strings.Replace(implicit, `"name"`, `"version": 1, "name"`, 1)
	dec2, err := DecodeScenario([]byte(explicit))
	if err != nil {
		t.Fatalf("explicit-v1 document rejected: %v", err)
	}
	k1, err := dec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := dec2.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("implicit and explicit v1 forms key differently:\n%s\n%s", k1, k2)
	}
}

// An unknown schema version must fail with the typed error, not decode as
// whatever this package happens to assume.
func TestScenarioVersionUnsupported(t *testing.T) {
	doc := `{
		"version": 99,
		"name": "future",
		"machine": {"nodes": 32},
		"placement": {"ranks": 256, "procs_per_node": 8},
		"trace": {"source": "synthetic"},
		"strategies": [{"kind": "hierarchical"}]
	}`
	_, err := DecodeScenario([]byte(doc))
	if err == nil {
		t.Fatal("decoded a version-99 scenario")
	}
	var ve *SchemaVersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error is %T, want *SchemaVersionError: %v", err, err)
	}
	if ve.Version != 99 || ve.Supported != ScenarioVersion {
		t.Fatalf("SchemaVersionError = %+v, want Version 99 Supported %d", ve, ScenarioVersion)
	}
}

// TestGrownMachineName: a machine grown past the base model is named
// "<model>-scaled[<nodes>]", byte for byte the fmt form the scaling
// experiment's rigs use, whatever the node count's digits.
func TestGrownMachineName(t *testing.T) {
	base := Tsubame2()
	for _, nodes := range []int{base.Nodes + 1, 8192, 65536, 1 << 20} {
		sc := &Scenario{Machine: MachineSpec{Nodes: nodes}, Placement: PlacementSpec{Ranks: nodes, ProcsPerNode: 1}}
		at, err := sc.resolvePlacement()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%s-scaled[%d]", base.Name, nodes); at.mach.Name != want {
			t.Errorf("%d nodes: machine %q, want %q", nodes, at.mach.Name, want)
		}
	}
}
