// Package checkpoint implements the multi-level checkpointing library of
// the paper's FTI substrate (reference [3]): application state is saved to
// node-local SSDs at high frequency, optionally replicated to a partner
// node, erasure-coded across an encoding group, or flushed to the parallel
// file system. A restart planner recovers each rank's state from the
// cheapest level that survived the failure.
//
// Level 3 uses the FTI Reed–Solomon layout: an encoding group of k members
// holds k data shards (the members' own checkpoints on their local SSDs)
// plus k parity shards (parity shard i on member i's node). Any k of the 2k
// shards reconstruct the group, so the group survives the loss of ⌊k/2⌋
// nodes — the "half group" tolerance assumed by the reliability model.
//
// A shard is a member's blob zero-extended to its group's longest blob; the
// blob's own length lives in Meta, not in the shard. Blobs as long as the
// longest are encoded and decoded in place, so on the L3 paths the only
// bytes allocated are bytes that end up stored or returned.
package checkpoint

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"hierclust/internal/erasure"
	"hierclust/internal/storage"
	"hierclust/internal/topology"
)

// Level identifies a protection level, cheapest first.
type Level int

const (
	// L1Local is a checkpoint on the rank's node-local SSD.
	L1Local Level = 1
	// L2Partner adds a copy on a partner node.
	L2Partner Level = 2
	// L3Encoded adds Reed–Solomon parity across the encoding group.
	L3Encoded Level = 3
	// L4PFS is a checkpoint on the parallel file system.
	L4PFS Level = 4
)

// String names the level as FTI does.
func (l Level) String() string {
	switch l {
	case L1Local:
		return "L1-local"
	case L2Partner:
		return "L2-partner"
	case L3Encoded:
		return "L3-encoded"
	case L4PFS:
		return "L4-pfs"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ErrUnrecoverable is wrapped when no surviving level can restore a rank —
// the catastrophic failure of the paper's reliability dimension.
var ErrUnrecoverable = errors.New("checkpoint: unrecoverable")

// Meta records one rank's checkpoint for integrity checking.
type Meta struct {
	Rank     topology.Rank
	Version  int
	Level    Level
	Size     int64
	Checksum uint32
}

// parityMeta records one group's Reed–Solomon parity of one version: the
// shard size (the group's longest blob) and a CRC32 per parity shard, so a
// damaged parity shard counts as erased instead of poisoning the decode.
type parityMeta struct {
	size int
	crc  []uint32
}

// versionMeta is everything the manager remembers about one version.
type versionMeta struct {
	ranks  map[topology.Rank]Meta
	parity map[int]parityMeta // encoding group -> its RS parity record
}

// member locates a rank inside its encoding group.
type member struct{ group, index int }

// Result reports the simulated cost of one checkpoint operation at paper
// scale plus, for encoded checkpoints, the measured encode wall time.
type Result struct {
	// Level actually taken.
	Level Level
	// LocalWriteTime is the simulated SSD time (max over nodes; ranks on
	// one node serialize on its SSD, nodes proceed in parallel).
	LocalWriteTime time.Duration
	// PartnerTime is the simulated network+write time of partner copies.
	PartnerTime time.Duration
	// EncodeWallTime is the measured wall-clock time of the slowest real
	// Reed–Solomon group encode. Groups are encoded one after another;
	// this is the longest of them, not their sum.
	EncodeWallTime time.Duration
	// EncodeModelTime is the modeled paper-scale encode time for the same
	// group size, per erasure.ModelEncodeSeconds.
	EncodeModelTime time.Duration
	// PFSTime is the simulated contended parallel-file-system time.
	PFSTime time.Duration
}

// Manager orchestrates multi-level checkpoints for a set of ranks placed on
// a storage cluster.
type Manager struct {
	cluster   *storage.Cluster
	placement *topology.Placement
	groups    [][]topology.Rank
	memberOf  map[topology.Rank]member
	meta      map[int]*versionMeta

	// decodeWall accumulates measured erasure reconstruction wall time
	// (RS group decodes); hybrid recovery drains it per failure event.
	decodeWall time.Duration
}

// New creates a manager. groups lists the encoding groups (the L2 clusters
// of the hierarchical scheme) partitioning a subset of ranks; ranks outside
// any group simply cannot use L3. Every group needs at least 2 members.
func New(cluster *storage.Cluster, placement *topology.Placement, groups [][]topology.Rank) (*Manager, error) {
	members := slices.Concat(groups...) // every group's copy, carved below
	m := &Manager{
		cluster:   cluster,
		placement: placement,
		groups:    make([][]topology.Rank, len(groups)),
		memberOf:  make(map[topology.Rank]member, len(members)),
		meta:      map[int]*versionMeta{},
	}
	for gi, g := range groups {
		if len(g) < 2 {
			return nil, fmt.Errorf("checkpoint: encoding group %d has %d members; need at least 2", gi, len(g))
		}
		m.groups[gi], members = members[:len(g):len(g)], members[len(g):]
		for i, r := range g {
			if int(r) < 0 || int(r) >= placement.NumRanks() {
				return nil, fmt.Errorf("checkpoint: group %d member rank %d out of range", gi, r)
			}
			if prev, dup := m.memberOf[r]; dup {
				return nil, fmt.Errorf("checkpoint: rank %d in groups %d and %d", r, prev.group, gi)
			}
			m.memberOf[r] = member{gi, i}
		}
	}
	return m, nil
}

// Groups returns the encoding groups (not aliased).
func (m *Manager) Groups() [][]topology.Rank {
	out := make([][]topology.Rank, len(m.groups))
	for i, g := range m.groups {
		out[i] = append([]topology.Rank(nil), g...)
	}
	return out
}

// asShard returns blob as a shard of exactly size bytes, read-only: the
// blob's own prefix when it is long enough, a zero-extended copy otherwise.
func asShard(blob []byte, size int) []byte {
	if len(blob) >= size {
		return blob[:size]
	}
	p := make([]byte, size)
	copy(p, blob)
	return p
}

// groupShards gathers one encoding group's blobs from a checkpoint round as
// equal-size shards (see asShard; size is the longest blob) into dst's
// backing array, or returns none when no member of the group checkpointed
// this round: Checkpoint has refused a partly present group (wholeGroups).
func groupShards(dst [][]byte, group []topology.Rank, data map[topology.Rank][]byte) (shards [][]byte, size int) {
	if _, ok := data[group[0]]; !ok {
		return dst[:0], 0
	}
	shards = slices.Grow(dst[:0], len(group))
	for _, r := range group {
		shards = append(shards, data[r])
		size = max(size, len(data[r]))
	}
	for i, blob := range shards {
		shards[i] = asShard(blob, size)
	}
	return shards, size
}

// wholeGroups checks that each encoding group checkpoints all of its
// members this round or none of them.
func (m *Manager) wholeGroups(version int, data map[topology.Rank][]byte) error {
	for gi, group := range m.groups {
		missing, present := topology.Rank(-1), false
		for _, r := range group {
			if _, ok := data[r]; ok {
				present = true
			} else {
				missing = r
			}
		}
		if present && missing >= 0 {
			return fmt.Errorf("checkpoint: group %d member %d missing from version %d data", gi, missing, version)
		}
	}
	return nil
}

// DrainDecodeTime returns the Reed–Solomon reconstruction wall time
// accumulated since the last drain (hybrid recovery reports it per failure
// event).
func (m *Manager) DrainDecodeTime() time.Duration {
	d := m.decodeWall
	m.decodeWall = 0
	return d
}

// The store keys: the last id is always the version.
func keyL1(r topology.Rank, v int) storage.Key  { return storage.NewKey("l1", int(r), v) }
func keyL2(r topology.Rank, v int) storage.Key  { return storage.NewKey("l2p", int(r), v) }
func keyL3(g, i, v int) storage.Key             { return storage.NewKey("l3p", g, i, v) }
func keyPFS(r topology.Rank, v int) storage.Key { return storage.NewKey("l4", int(r), v) }

// Checkpoint saves data (rank → blob) at the given version and level.
// Lower levels are implied: L3 also writes L1; L2 also writes L1. The blobs
// are only read and never kept: every level stores its own copy. A rank
// outside the placement, an unknown level, L2 on a single node and L3 on a
// partly present group are errors, returned before anything is written or
// the version is recorded.
func (m *Manager) Checkpoint(version int, level Level, data map[topology.Rank][]byte) (*Result, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("checkpoint: no data for version %d", version)
	}
	ranks := make([]topology.Rank, 0, len(data))
	for r := range data {
		if int(r) < 0 || int(r) >= m.placement.NumRanks() {
			return nil, fmt.Errorf("checkpoint: version %d rank %d out of range 0..%d", version, r, m.placement.NumRanks()-1)
		}
		ranks = append(ranks, r)
	}
	switch level {
	case L1Local, L4PFS:
	case L2Partner:
		if n := m.placement.NumUsed(); n < 2 {
			return nil, fmt.Errorf("checkpoint: partner copies need at least 2 nodes, have %d", n)
		}
	case L3Encoded:
		if err := m.wholeGroups(version, data); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("checkpoint: unknown level %d", int(level))
	}
	res := &Result{Level: level}
	vm := m.meta[version]
	if vm == nil {
		vm = &versionMeta{ranks: make(map[topology.Rank]Meta, len(data)), parity: make(map[int]parityMeta, len(m.groups))}
		m.meta[version] = vm
	}

	if level != L4PFS {
		if err := m.writeLocal(version, ranks, data, vm.ranks, level, res); err != nil {
			return nil, err
		}
	}
	switch level {
	case L2Partner:
		if err := m.writePartner(version, data, res); err != nil {
			return nil, err
		}
	case L3Encoded:
		if err := m.encodeGroups(version, data, vm, res); err != nil {
			return nil, err
		}
	case L4PFS:
		if err := m.writePFS(version, data, vm.ranks, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeLocal copies each node's blobs into one exact-size slab and stores
// a cap-clipped part of it per rank, so a node's L1 copies are one
// allocation, dropped together when the node fails. It sorts ranks by node.
func (m *Manager) writeLocal(version int, ranks []topology.Rank, data map[topology.Rank][]byte, metas map[topology.Rank]Meta, level Level, res *Result) error {
	p := m.placement
	slices.SortFunc(ranks, func(a, b topology.Rank) int { return cmp.Or(cmp.Compare(p.NodeOf(a), p.NodeOf(b)), cmp.Compare(a, b)) })
	var parts [][]byte
	for len(ranks) > 0 {
		node := p.NodeOf(ranks[0])
		parts = parts[:0]
		for _, r := range ranks {
			if p.NodeOf(r) != node {
				break
			}
			parts = append(parts, data[r])
		}
		st, err := m.cluster.Local(node)
		if err != nil {
			return err
		}
		slab := bytes.Join(parts, nil) // no zeroing pass before the copy
		var d time.Duration
		for i, r := range ranks[:len(parts)] {
			n := len(parts[i])
			blob := slab[:n:n]
			slab = slab[n:]
			dr, err := st.PutOwned(keyL1(r, version), blob)
			if err != nil {
				return fmt.Errorf("checkpoint: L1 write rank %d: %w", r, err)
			}
			d += dr
			metas[r] = Meta{Rank: r, Version: version, Level: level, Size: int64(n), Checksum: crc32.ChecksumIEEE(blob)}
		}
		res.LocalWriteTime = max(res.LocalWriteTime, d)
		ranks = ranks[len(parts):]
	}
	return nil
}

// partnerOf returns the node holding the partner copies of home's ranks: the
// next used node, cyclically. ok is false when there is no second node.
func (m *Manager) partnerOf(home topology.NodeID) (partner topology.NodeID, ok bool) {
	nused := m.placement.NumUsed()
	pos := m.placement.UsedIndex(home)
	if nused < 2 || pos < 0 {
		return 0, false
	}
	return m.placement.UsedNode((pos + 1) % nused), true
}

func (m *Manager) writePartner(version int, data map[topology.Rank][]byte, res *Result) error {
	net := &storage.Device{Name: "net", ReadBps: m.placement.Machine().NetBps, WriteBps: m.placement.Machine().NetBps}
	perNode := map[topology.NodeID]time.Duration{}
	for r, blob := range data {
		partner, _ := m.partnerOf(m.placement.NodeOf(r))
		st, err := m.cluster.Local(partner)
		if err != nil {
			return err
		}
		d, err := st.Put(keyL2(r, version), blob)
		if err != nil {
			return fmt.Errorf("checkpoint: partner write rank %d: %w", r, err)
		}
		perNode[partner] += d + net.WriteTime(int64(len(blob)), 1)
	}
	for _, d := range perNode {
		res.PartnerTime = max(res.PartnerTime, d)
	}
	return nil
}

// encodeGroups writes each group's k parity shards. The blobs are encoded
// in place into one slab per group, whose k cap-clipped parts pass to the
// members' node stores: the slab stays allocated until the group's last
// parity shard is dropped. Each shard's CRC32 goes into vm, carved from one
// slab per round; the shard and parity headers are reused group to group,
// and the codec is the process's shared RS(k, k).
func (m *Manager) encodeGroups(version int, data map[topology.Rank][]byte, vm *versionMeta, res *Result) error {
	var shards, parity [][]byte
	crcs := make([]uint32, len(m.memberOf))
	for gi, group := range m.groups {
		var size int
		if shards, size = groupShards(shards, group, data); len(shards) == 0 {
			continue
		}
		k := len(group)
		codec, err := erasure.NewGroupEncoder(k, k, 0, 0)
		if err != nil {
			return fmt.Errorf("checkpoint: group %d encoder: %w", gi, err)
		}
		slab := make([]byte, k*size)
		parity = slices.Grow(parity[:0], k)
		for i := range k {
			parity = append(parity, slab[i*size:(i+1)*size:(i+1)*size])
		}
		gres, err := codec.EncodeInto(shards, parity)
		if err != nil {
			return fmt.Errorf("checkpoint: group %d encode: %w", gi, err)
		}
		res.EncodeWallTime = max(res.EncodeWallTime, gres.Elapsed)
		res.EncodeModelTime = max(res.EncodeModelTime, gres.ModelTime)
		pm := parityMeta{size: size, crc: crcs[:k:k]}
		crcs = crcs[k:]
		for i, r := range group {
			st, err := m.cluster.Local(m.placement.NodeOf(r))
			if err != nil {
				return err
			}
			pm.crc[i] = crc32.ChecksumIEEE(parity[i])
			if _, err := st.PutOwned(keyL3(gi, i, version), parity[i]); err != nil {
				return fmt.Errorf("checkpoint: group %d parity %d: %w", gi, i, err)
			}
		}
		vm.parity[gi] = pm
	}
	return nil
}

func (m *Manager) writePFS(version int, data map[topology.Rank][]byte, metas map[topology.Rank]Meta, res *Result) error {
	sharing := m.placement.NumUsed()
	for r, blob := range data {
		d, err := m.cluster.PFS().Put(keyPFS(r, version), blob, sharing)
		if err != nil {
			return err
		}
		res.PFSTime = max(res.PFSTime, d)
		metas[r] = Meta{Rank: r, Version: version, Level: L4PFS, Size: int64(len(blob)), Checksum: crc32.ChecksumIEEE(blob)}
	}
	return nil
}
