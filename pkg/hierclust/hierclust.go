// Package hierclust is the public, composable API of the hierarchical-
// clustering fault-tolerance study (Bautista-Gomez et al., CLUSTER 2012):
// clustering strategies for coupling fast erasure-coded checkpointing with
// failure containment, evaluated on the paper's four-dimensional
// optimization space — message-logging overhead, recovery cost, encoding
// time, and reliability.
//
// The package exposes three composable layers:
//
//   - StrategySpec: one of the paper's four clustering strategies (naive,
//     size-guided, distributed, hierarchical) and its parameters. The set
//     is closed; a spec validates and builds itself (StrategySpec.Build).
//
//   - Scenario: a declarative description of one evaluation — machine
//     model, placement policy, trace source (traced application, synthetic
//     stencil, or serialized trace file), strategy set, failure mix, and
//     baseline — with a stable JSON encoding, so experiments are data, not
//     code. EncodeScenario/DecodeScenario round-trip byte-identically and
//     reject unknown fields.
//
//   - Pipeline: the runner that drives a Scenario through the sparse,
//     parallel trace→cluster→evaluate engine, with functional options and
//     context cancellation. Results are deterministic at any worker count.
//
// The cmd/hcserve binary wraps a Pipeline in an HTTP service
// (POST /v1/evaluate and /v1/evaluate-batch) with a scenario-result LRU
// and an optional trace-level cache beneath it (MemoryTraceCache, keyed by
// Scenario.TraceKey); cmd/hcrun's four-dimension tables (Table II,
// Fig. 5c, the scaling ladder) are scenarios run by a Pipeline too.
//
// Lower-level building blocks — machines and placements, communication
// matrices, the multi-level checkpoint store, and the hybrid
// rollback-recovery protocol — are re-exported here so applications never
// import this repository's internal packages.
//
// # Pinned invariants
//
// Three properties are contractual; tests across the repository assert
// them and downstream code may rely on them:
//
//   - Bit-identity at any worker count. Pipeline.Run produces the same
//     Result — byte-identical JSON — whether it runs with 1 worker or
//     GOMAXPROCS. Parallelism changes wall-clock time, never numbers.
//     This is what makes the result and trace caches sound: a cached
//     value is indistinguishable from a recomputation.
//
//   - Frozen-CSR immutability. The communication matrices the pipeline
//     builds and caches (trace.CSR and the implicit trace.Stencil a
//     synthetic source resolves to) have no mutating method, so one
//     trace may back any number of concurrent evaluations — the property
//     the trace cache, and the waiters on a build in flight in it, depend
//     on.
//
//   - Scenario schema versioning. ScenarioVersion is the schema this
//     package writes; DecodeScenario accepts documents up to that version
//     and rejects newer ones with SchemaVersionError, and unknown fields
//     are always an error. Old documents keep decoding forever: fields
//     are only ever added, with zero values meaning "the old behavior".
package hierclust
