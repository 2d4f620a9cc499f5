package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"time"

	"hierclust/internal/erasure"
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
// caller owns; besides those, a call allocates its list of lost group
// members, one decode scratch and one decode matrix per damaged group.
func (m *Manager) Restore(version int, ranks []topology.Rank) ([]Restored, error) {
	vm := m.meta[version]
	if vm == nil {
		vm = &versionMeta{} // unknown version: every lookup below misses
	}
	out := make([]Restored, len(ranks))
	var lost []int // indices into ranks of group members neither SSD nor partner supplies
	for i, r := range ranks {
		meta, ok := vm.ranks[r]
		if !ok {
			return nil, fmt.Errorf("checkpoint: rank %d has no version-%d checkpoint: %w", r, version, ErrUnrecoverable)
		}
		out[i].Rank = r
		home := m.placement.NodeOf(r)
		partner, _ := m.partnerOf(home) // none on one node, where no L2 copy is written
		if blob, ok := m.view(home, keyL1(r, version), &meta); ok {
			out[i].Level, out[i].Data = L1Local, append([]byte(nil), blob...)
		} else if blob, ok := m.view(partner, keyL2(r, version), &meta); ok {
			out[i].Level, out[i].Data = L2Partner, append([]byte(nil), blob...)
		} else if _, ok := m.memberOf[r]; ok {
			if lost == nil {
				lost = make([]int, 0, len(ranks)-i)
			}
			lost = append(lost, i)
		}
	}
	// Each damaged group is decoded once, for exactly the members asked
	// for: the lost members of lost[0]'s group move to the front of lost.
	var sc decodeScratch
	for len(lost) > 0 {
		g, n := m.memberOf[ranks[lost[0]]].group, 1
		for j := 1; j < len(lost); j++ {
			if m.memberOf[ranks[lost[j]]].group == g {
				lost[n], lost[j] = lost[j], lost[n]
				n++
			}
		}
		m.decodeGroup(version, vm, g, lost[:n], out, &sc)
		lost = lost[n:]
	}
	for i, r := range ranks {
		if out[i].Level != 0 {
			continue
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

// view returns a borrowed view (see storage.LocalStore.View) of the blob
// under key on node n if it survives and passes meta's integrity check. A
// blob that fails the check is as lost as an erased one: feeding it to a
// decoder would silently corrupt the group.
func (m *Manager) view(n topology.NodeID, key storage.Key, meta *Meta) ([]byte, bool) {
	st, err := m.cluster.Local(n)
	if err != nil {
		return nil, false
	}
	blob, ok := st.View(key)
	if !ok || !m.verify(meta, blob) {
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

// decodeScratch is one Restore's decode state, reused group to group: the
// survivors' shard rows and borrowed views, the wanted members and the
// headers of their output buffers.
type decodeScratch struct {
	rows      []int
	survivors [][]byte
	want      []int
	bufs      [][]byte
}

// decodeGroup rebuilds, with one Reed–Solomon decode, the checkpoints of the
// members of group gi listed in idxs (indices into out), which Restore found
// lost, and fills in those that pass their integrity check. The decode
// reads borrowed views of exactly k verified survivors, data shards first,
// and writes only the requested members' blobs, into fresh buffers.
func (m *Manager) decodeGroup(version int, vm *versionMeta, gi int, idxs []int, out []Restored, sc *decodeScratch) {
	pm, ok := vm.parity[gi]
	if !ok {
		return // this version holds no RS parity for the group
	}
	group := m.groups[gi]
	k := len(group)
	codec, err := erasure.NewGroupEncoder(k, k, 0, 0)
	if err != nil {
		return
	}
	sc.want = slices.Grow(sc.want[:0], len(idxs))
	for _, i := range idxs {
		sc.want = append(sc.want, m.memberOf[out[i].Rank].index)
	}
	sc.rows, sc.survivors = slices.Grow(sc.rows[:0], k), slices.Grow(sc.survivors[:0], k)
	for i, r := range group {
		if meta, ok := vm.ranks[r]; ok && !slices.Contains(sc.want, i) {
			if blob, ok := m.view(m.placement.NodeOf(r), keyL1(r, version), &meta); ok {
				sc.rows = append(sc.rows, i)
				sc.survivors = append(sc.survivors, asShard(blob, pm.size))
			}
		}
	}
	for i, r := range group {
		if len(sc.rows) == k {
			break
		}
		st, err := m.cluster.Local(m.placement.NodeOf(r))
		if err != nil {
			continue
		}
		// A parity shard that fails its CRC is erased, like a data shard.
		if p, ok := st.View(keyL3(gi, i, version)); ok && len(p) == pm.size && crc32.ChecksumIEEE(p) == pm.crc[i] {
			sc.rows = append(sc.rows, k+i)
			sc.survivors = append(sc.survivors, p)
		}
	}
	if len(sc.rows) < k {
		return
	}
	sc.bufs = slices.Grow(sc.bufs[:0], len(idxs))
	for _, i := range idxs {
		sc.bufs = append(sc.bufs, make([]byte, vm.ranks[out[i].Rank].Size))
	}
	start := time.Now()
	err = codec.Decode(sc.rows, sc.survivors, sc.want, sc.bufs)
	m.decodeWall += time.Since(start)
	if err != nil {
		return
	}
	for j, i := range idxs {
		if meta := vm.ranks[out[i].Rank]; m.verify(&meta, sc.bufs[j]) {
			out[i].Level, out[i].Data = L3Encoded, sc.bufs[j]
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
