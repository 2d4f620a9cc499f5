package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"time"

	"hierclust/internal/storage"
	"hierclust/internal/topology"
)

// Restored describes how one rank was recovered.
type Restored struct {
	Rank  topology.Rank
	Level Level // the level that supplied the data
	Data  []byte
}

// Restore recovers the checkpoints of the given ranks at version, picking
// per rank the cheapest level that survived: local SSD, partner copy,
// Reed–Solomon group reconstruction, then PFS. It returns one Restored per
// requested rank, in request order, or ErrUnrecoverable (wrapped) if any
// rank cannot be recovered. Every Restored.Data is a fresh buffer the
// caller owns.
func (m *Manager) Restore(version int, ranks []topology.Rank) ([]Restored, error) {
	vm := m.meta[version]
	if vm == nil {
		vm = &versionMeta{} // unknown version: every lookup below misses
	}
	out := make([]Restored, len(ranks))
	// Ranks that neither their SSD nor their partner can supply queue up by
	// encoding group, so that each damaged group is decoded once, for
	// exactly the members asked for.
	var pending []int // indices into ranks
	byGroup := map[int][]int{}
	for i, r := range ranks {
		meta, ok := vm.ranks[r]
		if !ok {
			return nil, fmt.Errorf("checkpoint: rank %d has no version-%d checkpoint: %w", r, version, ErrUnrecoverable)
		}
		out[i].Rank = r
		if blob, ok := m.viewLocal(version, r, &meta); ok {
			out[i].Level, out[i].Data = L1Local, append([]byte(nil), blob...)
		} else if blob, ok := m.tryPartner(version, r, &meta); ok {
			out[i].Level, out[i].Data = L2Partner, blob
		} else {
			pending = append(pending, i)
			if mb, ok := m.memberOf[r]; ok {
				byGroup[mb.group] = append(byGroup[mb.group], i)
			}
		}
	}
	for _, i := range pending {
		r := ranks[i]
		if mb, ok := m.memberOf[r]; ok && byGroup[mb.group] != nil {
			m.decodeGroup(version, vm, mb.group, byGroup[mb.group], out)
			delete(byGroup, mb.group)
		}
		if out[i].Level != 0 {
			continue // the group decode supplied it
		}
		meta := vm.ranks[r]
		blob, ok := m.tryPFS(version, r, &meta)
		if !ok {
			return nil, fmt.Errorf("checkpoint: rank %d version %d lost at all levels: %w", r, version, ErrUnrecoverable)
		}
		out[i].Level, out[i].Data = L4PFS, blob
	}
	return out, nil
}

func (m *Manager) verify(meta *Meta, blob []byte) bool {
	return int64(len(blob)) == meta.Size && crc32.ChecksumIEEE(blob) == meta.Checksum
}

// viewLocal returns a borrowed view (see storage.LocalStore.View) of r's L1
// checkpoint if it survives and passes its integrity check. A blob that
// fails the check is as lost as an erased one: feeding it to a decoder
// would silently corrupt the group.
func (m *Manager) viewLocal(version int, r topology.Rank, meta *Meta) ([]byte, bool) {
	st, err := m.cluster.Local(m.placement.NodeOf(r))
	if err != nil {
		return nil, false
	}
	blob, _, err := st.View(keyL1(r, version))
	if err != nil || !m.verify(meta, blob) {
		return nil, false
	}
	return blob, true
}

func (m *Manager) tryPartner(version int, r topology.Rank, meta *Meta) ([]byte, bool) {
	partner, ok := m.partnerOf(m.placement.NodeOf(r))
	if !ok {
		return nil, false
	}
	st, err := m.cluster.Local(partner)
	if err != nil {
		return nil, false
	}
	blob, _, err := st.Get(keyL2(r, version))
	if err != nil || !m.verify(meta, blob) {
		return nil, false
	}
	return blob, true
}

func (m *Manager) tryPFS(version int, r topology.Rank, meta *Meta) ([]byte, bool) {
	blob, _, err := m.cluster.PFS().Get(keyPFS(r, version), 1)
	if err != nil || !m.verify(meta, blob) {
		return nil, false
	}
	return blob, true
}

// decodeGroup rebuilds, with one Reed–Solomon decode, the checkpoints of the
// members of group gi listed in idxs (indices into out) and fills in those
// that pass their integrity check. The decode reads borrowed views of
// exactly k verified survivors, data shards first, and writes only the
// requested members' blobs, into fresh buffers.
func (m *Manager) decodeGroup(version int, vm *versionMeta, gi int, idxs []int, out []Restored) {
	pm, ok := vm.parity[gi]
	if !ok {
		return // this version holds no RS parity for the group
	}
	group := m.groups[gi]
	k := len(group)
	codec, err := m.codecFor(k)
	if err != nil {
		return
	}
	rows := make([]int, 0, k)
	survivors := make([][]byte, 0, k)
	for i, r := range group {
		meta, ok := vm.ranks[r]
		if !ok {
			continue
		}
		if blob, ok := m.viewLocal(version, r, &meta); ok {
			rows = append(rows, i)
			survivors = append(survivors, asShard(blob, pm.size))
		}
	}
	for i, r := range group {
		if len(rows) == k {
			break
		}
		st, err := m.cluster.Local(m.placement.NodeOf(r))
		if err != nil {
			continue
		}
		// A parity shard that fails its CRC is erased, like a data shard.
		p, _, err := st.View(keyL3(gi, i, version))
		if err == nil && len(p) == pm.size && crc32.ChecksumIEEE(p) == pm.crc[i] {
			rows = append(rows, k+i)
			survivors = append(survivors, p)
		}
	}
	if len(rows) < k {
		return
	}
	want := make([]int, len(idxs))
	bufs := make([][]byte, len(idxs))
	for j, i := range idxs {
		want[j] = m.memberOf[out[i].Rank].index
		bufs[j] = make([]byte, vm.ranks[out[i].Rank].Size)
	}
	start := time.Now()
	err = codec.Decode(rows, survivors, want, bufs)
	m.decodeWall += time.Since(start)
	if err != nil {
		return
	}
	for j, i := range idxs {
		if meta := vm.ranks[out[i].Rank]; m.verify(&meta, bufs[j]) {
			out[i].Level, out[i].Data = L3Encoded, bufs[j]
		}
	}
}

// GC removes all checkpoint artifacts of versions strictly below keep. The
// manager knows where every key it may have written lives, so it deletes
// them directly; deleting a key that was never written is a no-op.
func (m *Manager) GC(keep int) {
	for v, vm := range m.meta {
		if v >= keep {
			continue
		}
		for r := range vm.ranks {
			home := m.placement.NodeOf(r)
			m.deleteLocal(home, keyL1(r, v))
			if partner, ok := m.partnerOf(home); ok {
				m.deleteLocal(partner, keyL2(r, v))
			}
			m.cluster.PFS().Delete(keyPFS(r, v))
		}
		for gi, group := range m.groups {
			for i, r := range group {
				m.deleteLocal(m.placement.NodeOf(r), keyL3(gi, i, v))
			}
		}
		delete(m.meta, v)
	}
}

func (m *Manager) deleteLocal(n topology.NodeID, key storage.Key) {
	if st, err := m.cluster.Local(n); err == nil {
		_ = st.Delete(key) // fails only on a failed store, which holds nothing
	}
}

// Versions lists the versions with metadata, ascending.
func (m *Manager) Versions() []int { return slices.Sorted(maps.Keys(m.meta)) }

// Unrecoverable reports whether err indicates a catastrophic loss.
func Unrecoverable(err error) bool { return errors.Is(err, ErrUnrecoverable) }
