// Package topology models the physical structure of an HPC machine —
// compute nodes, processes per node, power-supply pairs, racks — and the
// mapping of application process ranks onto that structure (the placement).
//
// The paper's evaluation platform is TSUBAME2 (Table I); Tsubame2 returns a
// machine model built from those published constants. Clustering strategies
// in internal/core consume a Machine plus a Placement to decide which
// processes share compute nodes, which nodes share a power supply, and hence
// which failures are correlated.
package topology

import (
	"fmt"
	"math"
)

// NodeID identifies a compute node within a Machine. Ids are 32-bit: every
// per-rank and per-node array a clustering or placement owns stores them at
// 4 bytes each.
type NodeID int32

// Rank identifies a process in the parallel application (MPI-style rank).
type Rank int32

// MaxIDs is the largest rank or node count: ids run 0..n-1 as int32, and a
// per-cluster member count stored beside them fits the same width.
const MaxIDs = math.MaxInt32

// CheckCount returns an error when n ids of kind what ("ranks", "nodes") do
// not fit the int32 id types; callers check before allocating n of anything.
func CheckCount(what string, n int) error {
	if n > MaxIDs {
		return fmt.Errorf("topology: %d %s exceed the int32 id range", n, what)
	}
	return nil
}

// Machine describes the fault-relevant physical structure of a cluster.
//
// Nodes are numbered 0..Nodes-1. Consecutive node pairs (2i, 2i+1) share a
// power supply when PowerPairs is true, so both fail together on a supply
// fault. Racks group NodesPerRack consecutive nodes and model correlated
// rack-level faults (cooling, PDU).
type Machine struct {
	// Name labels the machine in reports, e.g. "TSUBAME2".
	Name string
	// Nodes is the number of compute nodes.
	Nodes int
	// CoresPerNode is the hardware core count of one node.
	CoresPerNode int
	// PowerPairs indicates whether nodes 2i and 2i+1 share a power supply.
	PowerPairs bool
	// NodesPerRack groups consecutive nodes into racks; 0 disables racks.
	NodesPerRack int

	// SSDWriteBps is the node-local SSD write bandwidth in bytes/second.
	SSDWriteBps float64
	// SSDReadBps is the node-local SSD read bandwidth in bytes/second.
	SSDReadBps float64
	// PFSWriteBps is the aggregate parallel-file-system write bandwidth in
	// bytes/second, shared by all concurrent writers.
	PFSWriteBps float64
	// PFSReadBps is the aggregate parallel-file-system read bandwidth.
	PFSReadBps float64
	// NetBps is the per-node injection bandwidth in bytes/second.
	NetBps float64
	// MemPerNode is the usable memory per node in bytes.
	MemPerNode int64
}

// Validate reports an error if the machine description is unusable.
func (m *Machine) Validate() error {
	if m.Nodes <= 0 {
		return fmt.Errorf("topology: machine %q has %d nodes; need at least 1", m.Name, m.Nodes)
	}
	if m.NodesPerRack < 0 {
		return fmt.Errorf("topology: machine %q has negative NodesPerRack", m.Name)
	}
	return CheckCount("nodes", m.Nodes)
}

// Tsubame2 returns the TSUBAME2 machine model using the constants of the
// paper's Table I: 1408 high-bandwidth compute nodes, 12 cores (24 hardware
// threads), 120 GB node-local SSD writing at 360 MB/s (RAID0), dual-rail QDR
// InfiniBand at 4 GB/s per rail, and a measured 10 GB/s Lustre write
// throughput.
func Tsubame2() *Machine {
	return &Machine{
		Name:         "TSUBAME2",
		Nodes:        1408,
		CoresPerNode: 12,
		PowerPairs:   true,
		NodesPerRack: 32,
		SSDWriteBps:  360e6,
		SSDReadBps:   500e6,
		PFSWriteBps:  10e9,
		PFSReadBps:   10e9,
		NetBps:       8e9, // dual rail QDR IB, 4 GB/s x 2
		MemPerNode:   55_800_000_000,
	}
}

// Subset returns a machine identical to m but restricted to the first nodes
// compute nodes, as when a job allocation uses part of the cluster.
func (m *Machine) Subset(nodes int) (*Machine, error) {
	if nodes <= 0 || nodes > m.Nodes {
		return nil, fmt.Errorf("topology: subset of %d nodes out of range 1..%d", nodes, m.Nodes)
	}
	sub := *m
	sub.Nodes = nodes
	sub.Name = fmt.Sprintf("%s[0:%d]", m.Name, nodes)
	return &sub, nil
}
