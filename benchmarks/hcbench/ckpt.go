package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"hierclust/internal/checkpoint"
	"hierclust/internal/core"
	"hierclust/internal/erasure"
	"hierclust/internal/hybrid"
	"hierclust/internal/simmpi"
	"hierclust/internal/storage"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
)

// ckptWL is ckpt-cycle: op = one failure cycle through the protocol stack —
// a fresh storage cluster and checkpoint manager, an L3 (Reed–Solomon)
// checkpoint of every rank, the loss and repair of one node, and the
// restore of that node's ranks, compared byte for byte with what they
// saved. The encoding groups are the hierarchical clustering's L2 groups.
type ckptWL struct {
	sc        scale
	seed      uint64
	mach      *topology.Machine
	placement *topology.Placement
	groups    [][]topology.Rank
	data      map[topology.Rank][]byte // what every rank checkpoints
	want      map[topology.Rank][]byte // reference copy a restore is held against
}

func newCkpt(seed uint64, sc scale) (*ckptWL, error) {
	ranks := sc.ckptNodes * sc.ckptPPN
	mach := *topology.Tsubame2()
	mach.Nodes = sc.ckptNodes
	w := &ckptWL{sc: sc, seed: seed, mach: &mach}
	var err error
	if w.placement, err = topology.Block(w.mach, ranks, sc.ckptPPN); err != nil {
		return nil, err
	}
	comm, err := trace.Synthetic(ranks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: sc.ckptPPN})
	if err != nil {
		return nil, err
	}
	c, err := core.Hierarchical(comm, w.placement, core.HierOptions{
		MinNodesPerL1: sc.ckptGroupNodes, SubgroupNodes: sc.ckptGroupNodes,
	})
	if err != nil {
		return nil, err
	}
	w.groups = c.Groups

	// Checkpoint contents: a xorshift stream from the seed, so nothing
	// compresses, repeats or depends on the host.
	w.data = make(map[topology.Rank][]byte, ranks)
	w.want = make(map[topology.Rank][]byte, ranks)
	x := mix64(seed, streamCkpt, 0) | 1
	for r := 0; r < ranks; r++ {
		blob := make([]byte, sc.ckptBlob)
		for i := 0; i+8 <= len(blob); i += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(blob[i:], x)
		}
		w.data[topology.Rank(r)] = blob
		w.want[topology.Rank(r)] = append([]byte(nil), blob...)
	}

	for i := 0; i < sc.ckptWarm; i++ {
		if _, failed := w.step(-1-i, nil); failed != 0 {
			return nil, fmt.Errorf("warm-up cycle %d failed its check", i)
		}
	}
	return w, nil
}

// failedNode is the node unit idx loses.
func (w *ckptWL) failedNode(idx int) topology.NodeID {
	return topology.NodeID(mix64(w.seed, streamCkpt, 1<<32+uint64(int64(idx))) % uint64(w.sc.ckptNodes))
}

// cycle runs one failure cycle; do wraps the two calls that carry the work,
// so the traced run can put spans around them.
func (w *ckptWL) cycle(idx int, do func(name string, fn func())) bool {
	node := w.failedNode(idx)
	version := idx&0xffff + 1
	cluster := storage.NewCluster(w.mach)
	mgr, err := checkpoint.New(cluster, w.placement, w.groups)
	if err != nil {
		return false
	}
	do("checkpoint.l3", func() { _, err = mgr.Checkpoint(version, checkpoint.L3Encoded, w.data) })
	if err != nil || cluster.FailNode(node) != nil || cluster.RepairNode(node) != nil {
		return false
	}
	lost := w.placement.RanksOn(node)
	var restored []checkpoint.Restored
	do("checkpoint.restore", func() { restored, err = mgr.Restore(version, lost) })
	if err != nil || len(restored) != len(lost) {
		return false
	}
	for i, r := range restored {
		if r.Rank != lost[i] || r.Level != checkpoint.L3Encoded || !bytes.Equal(r.Data, w.want[r.Rank]) {
			return false
		}
	}
	return true
}

func (w *ckptWL) step(idx int, lat []time.Duration) ([]time.Duration, int) {
	t0 := time.Now()
	ok := w.cycle(idx, func(_ string, fn func()) { fn() })
	lat = append(lat, time.Since(t0))
	if !ok {
		return lat, 1
	}
	return lat, 0
}

func (w *ckptWL) opSpans() []string { return []string{"checkpoint.cycle"} }

func (w *ckptWL) input(idx int) ([]byte, string) {
	h := sha256.New()
	for r := 0; r < len(w.data); r++ {
		h.Write(w.data[topology.Rank(r)])
	}
	return h.Sum([]byte{byte(w.failedNode(idx))}), "cycle"
}

func (w *ckptWL) close() error { return nil }

// shards pads one encoding group's blobs the way the manager does: a
// four-byte length prefix, equal shard sizes.
func (w *ckptWL) shards(group []topology.Rank) [][]byte {
	out := make([][]byte, len(group))
	for i, r := range group {
		out[i] = make([]byte, 4+w.sc.ckptBlob)
		binary.LittleEndian.PutUint32(out[i], uint32(w.sc.ckptBlob))
		copy(out[i][4:], w.data[r])
	}
	return out
}

// traced runs the cycle with spans, then times the codec alone on the same
// shard shapes: every group's encode, and the reconstruction of the groups
// the lost node touches (one data and one parity shard missing in each).
func (w *ckptWL) traced(idx int, tr *tracer) (int, int) {
	failed := 0
	tr.do("checkpoint.unit", idx, false, func() {
		ok := false
		tr.do("checkpoint.cycle", idx, false, func() {
			ok = w.cycle(idx, func(name string, fn func()) { tr.do(name, idx, false, fn) })
		})
		if !ok {
			failed = 1
			return
		}
		k := len(w.groups[0])
		enc, err := erasure.NewGroupEncoder(k, k, 0, 1)
		if err != nil {
			failed = 1
			return
		}
		xor, err := erasure.NewXOR(k)
		if err != nil {
			failed = 1
			return
		}
		data := make([][][]byte, len(w.groups))
		parity := make([][][]byte, len(w.groups))
		for g, group := range w.groups {
			data[g] = w.shards(group)
			parity[g] = make([][]byte, k)
			for i := range parity[g] {
				parity[g][i] = make([]byte, len(data[g][0]))
			}
		}
		tr.do("erasure.encode", idx, false, func() {
			for g := range w.groups {
				if _, err := enc.EncodeInto(data[g], parity[g]); err != nil {
					failed = 1
				}
			}
		})
		xorParity := make([]byte, len(data[0][0]))
		tr.do("erasure.xor", idx, false, func() {
			for g := range w.groups {
				if err := xor.Encode(data[g], xorParity); err != nil {
					failed = 1
				}
			}
		})
		rs, err := erasure.NewRS(k, k)
		if err != nil {
			failed = 1
			return
		}
		node := w.failedNode(idx)
		var damaged [][][]byte
		for g, group := range w.groups {
			for i, r := range group {
				if w.placement.NodeOf(r) != node {
					continue
				}
				shards := append(append([][]byte(nil), data[g]...), parity[g]...)
				shards[i], shards[k+i] = nil, nil
				damaged = append(damaged, shards)
			}
		}
		tr.do("erasure.reconstruct", idx, false, func() {
			for _, shards := range damaged {
				if err := rs.Reconstruct(shards); err != nil {
					failed = 1
				}
			}
		})
	})
	return 1, failed
}

func (w *ckptWL) layers(tr *tracer, out map[string]float64) error {
	out["checkpoint.l3_ms"] = tr.medianMS("checkpoint.l3")
	out["checkpoint.restore_ms"] = tr.medianMS("checkpoint.restore")
	out["erasure.encode_ms"] = tr.medianMS("erasure.encode")
	out["erasure.reconstruct_ms"] = tr.medianMS("erasure.reconstruct")
	out["checkpoint.glue_ms"] = out["checkpoint.l3_ms"] - out["erasure.encode_ms"]
	k := len(w.groups[0])
	shard := 4 + w.sc.ckptBlob
	mb := float64(len(w.groups)*k*shard) / 1e6 // bytes protected per checkpoint
	out["checkpoint.l3_mb_per_s"] = mb / (out["checkpoint.l3_ms"] / 1e3)
	out["erasure.encode_mb_per_s"] = mb / (out["erasure.encode_ms"] / 1e3)
	out["erasure.xor_mb_per_s"] = mb / (tr.medianMS("erasure.xor") / 1e3)
	// Computed, not measured: every parity byte is a k-term GF(256) sum.
	out["erasure.gf_bytes"] = float64(len(w.groups) * k * k * shard)

	wn, err := allCores(w.sc.wnOps, func(i int) error {
		mgr, err := checkpoint.New(storage.NewCluster(w.mach), w.placement, w.groups)
		if err != nil {
			return err
		}
		_, err = mgr.Checkpoint(i+1, checkpoint.L3Encoded, w.data)
		return err
	})
	if err != nil {
		return err
	}
	out["checkpoint.l3_wn_ms"] = wn
	if out["hybrid.recovery_ms"], err = hybridRecovery(); err != nil {
		return err
	}
	out["simmpi.allgather256_ms"], err = allgather256()
	return err
}

// hybridRecovery times one contained recovery of the hybrid protocol —
// checkpoint, node failure, RS decode, replay, re-execution — on the rig of
// the repository's BenchmarkHybridRecovery. It runs a goroutine per rank,
// so it stays outside every timed window and is not gated.
func hybridRecovery() (float64, error) {
	const ranks, ppn = 64, 8
	mach := &topology.Machine{
		Name: "hybrid", Nodes: ranks / ppn,
		SSDWriteBps: 1e9, SSDReadBps: 1e9, PFSWriteBps: 1e9, PFSReadBps: 1e9, NetBps: 1e9,
	}
	placement, err := topology.Block(mach, ranks, ppn)
	if err != nil {
		return 0, err
	}
	m := trace.NewMatrix(ranks)
	for r := 0; r+1 < ranks; r++ {
		if err := m.Add(r, r+1, 1000); err != nil {
			return 0, err
		}
		if err := m.Add(r+1, r, 1000); err != nil {
			return 0, err
		}
	}
	cl, err := core.Hierarchical(m, placement, core.HierOptions{})
	if err != nil {
		return 0, err
	}
	params := tsunami.DefaultParams(ranks)
	params.NX, params.NY = 64, 2*ranks
	app, err := tsunami.NewFTApp(params)
	if err != nil {
		return 0, err
	}
	runner, err := hybrid.NewRunner(hybrid.Config{
		Placement: placement, Clusters: cl.L1, Groups: cl.Groups,
		CheckpointEvery: 5, Level: checkpoint.L3Encoded,
	}, app)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = runner.Run(15, map[int][]topology.NodeID{8: {2}})
	return ms(time.Since(t0)), err
}

// allgather256 times one recursive-doubling allgather on 256 simulated
// ranks, a goroutine each; ungated for the same reason.
func allgather256() (float64, error) {
	t0 := time.Now()
	err := simmpi.Run(256, simmpi.Options{}, func(p *simmpi.Proc) error {
		_, err := p.Comm().Allgather(make([]byte, 64))
		return err
	})
	return ms(time.Since(t0)), err
}
