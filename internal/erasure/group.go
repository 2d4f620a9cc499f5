package erasure

import (
	"fmt"
	"time"
)

// AlphaSecPerGBMember is the calibrated encoding cost constant derived from
// the paper's Table II: encoding 1 GB in a group of k members takes
// alpha·k seconds (204 s at k=32, 102 s at k=16, 51 s at k=8 — all equal to
// 6.375 s per GB per member; the hierarchical 25 s at k=4 matches within 2%).
const AlphaSecPerGBMember = 6.375

// ModelEncodeSeconds returns the modeled wall-clock seconds to erasure-code
// `bytes` of checkpoint data per process in a group of groupSize members,
// at the paper's calibration. This is the extrapolation used to report
// paper-scale (1 GB) encode times from MiB-scale runs.
func ModelEncodeSeconds(groupSize int, bytes int64) float64 {
	const gb = 1e9
	return AlphaSecPerGBMember * float64(groupSize) * float64(bytes) / gb
}

// GroupResult reports one group encode: the parity produced and the time it
// took, plus the modeled time at paper scale for the same group size.
type GroupResult struct {
	Parity    [][]byte
	Elapsed   time.Duration
	ModelTime time.Duration // ModelEncodeSeconds for the same shape
}

// GroupEncoder erasure-codes the checkpoint blocks of one encoding group
// (an L2 cluster) using Reed–Solomon, on its caller's goroutine. It is the
// shared RS codec of its shape (see NewRS) under a group-level method set:
// read-only, safe for concurrent use.
type GroupEncoder RS

// NewGroupEncoder returns the encoder for groups of k data shards and m
// parity shards: the process's one RS(k, m). chunkSize and workers are
// deprecated and ignored: an encode runs whole on its caller's goroutine,
// so a caller bounds encode compute by how many groups it encodes at once.
// They will be removed.
func NewGroupEncoder(k, m, chunkSize, workers int) (*GroupEncoder, error) {
	rs, err := NewRS(k, m)
	return (*GroupEncoder)(rs), err
}

// Encode produces parity for the group's data shards. All shards must have
// equal length. The returned GroupResult owns freshly allocated parity.
func (ge *GroupEncoder) Encode(data [][]byte) (GroupResult, error) {
	size, err := ge.checkData(data)
	if err != nil {
		return GroupResult{}, err
	}
	parity := make([][]byte, ge.m)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	return ge.encodeTimed(data, parity, size)
}

// EncodeInto encodes into caller-provided parity buffers, allocating
// nothing: each parity slice must match the data shard length and is
// overwritten. The data shards are only read.
func (ge *GroupEncoder) EncodeInto(data, parity [][]byte) (GroupResult, error) {
	size, err := ge.checkData(data)
	if err != nil {
		return GroupResult{}, err
	}
	if len(parity) != ge.m {
		return GroupResult{}, fmt.Errorf("erasure: got %d parity buffers, encoder built for %d", len(parity), ge.m)
	}
	for i, p := range parity {
		if len(p) != size {
			return GroupResult{}, fmt.Errorf("erasure: parity buffer %d size %d != shard size %d", i, len(p), size)
		}
	}
	return ge.encodeTimed(data, parity, size)
}

func (ge *GroupEncoder) checkData(data [][]byte) (int, error) {
	if len(data) != ge.k {
		return 0, fmt.Errorf("erasure: group has %d shards, encoder built for %d", len(data), ge.k)
	}
	size := 0
	if len(data) > 0 {
		size = len(data[0])
	}
	for i, d := range data {
		if len(d) != size {
			return 0, fmt.Errorf("erasure: shard %d size %d != %d", i, len(d), size)
		}
	}
	return size, nil
}

func (ge *GroupEncoder) encodeTimed(data, parity [][]byte, size int) (GroupResult, error) {
	start := time.Now()
	if err := (*RS)(ge).Encode(data, parity); err != nil {
		return GroupResult{}, err
	}
	return GroupResult{
		Parity:    parity,
		Elapsed:   time.Since(start),
		ModelTime: time.Duration(ModelEncodeSeconds(ge.k, int64(size)) * float64(time.Second)),
	}, nil
}

// Decode rebuilds only the wanted data shards from exactly k survivors; see
// RS.Decode.
func (ge *GroupEncoder) Decode(rows []int, survivors [][]byte, want []int, out [][]byte) error {
	return (*RS)(ge).Decode(rows, survivors, want, out)
}
