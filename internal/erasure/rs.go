package erasure

import (
	"errors"
	"fmt"
	"sync"
)

// ErrTooManyErasures is returned when fewer than k shards of a (k,m)
// Reed–Solomon group survive: the failure is catastrophic for this group in
// the sense of the paper's reliability model.
var ErrTooManyErasures = errors.New("erasure: too many erasures to reconstruct")

// RS is a systematic Reed–Solomon codec with k data shards and m parity
// shards over GF(2^8). Any k of the k+m shards reconstruct all data. A codec
// is immutable once built and every method only reads it, so one codec
// serves any number of goroutines at once.
type RS struct {
	k, m int
	// enc is the (k+m)×k encoding matrix whose top k×k block is identity.
	enc *matrix
	// parityPlans[p] is the precompiled table plan of parity row p: one
	// 256-entry multiplication table per coefficient, built once here so
	// every Encode walks tables instead of the log/exp pair.
	parityPlans [][]rowPlan
}

// codecs holds the codecs this process has built, one per (k, m). Building
// one inverts a k×k matrix and compiles its parity plans, so that is paid
// once per shape per process, not once per caller. The map has no size
// bound to set: k+m ≤ 256 bounds the shapes, and no hcserve request reaches
// it (no server path builds a codec). It holds immutable codecs, never
// buffers.
var (
	codecsMu sync.Mutex
	codecs   = map[[2]int]*RS{}
)

// NewRS returns the codec for k data and m parity shards, built on first
// use and shared by every later caller. k+m must not exceed 256 (field
// size) and both must be positive (m may be 0 for a degenerate no-parity
// group, used by baselines).
func NewRS(k, m int) (*RS, error) {
	if k <= 0 {
		return nil, fmt.Errorf("erasure: k = %d must be positive", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("erasure: m = %d must be non-negative", m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("erasure: k+m = %d exceeds GF(256) limit", k+m)
	}
	codecsMu.Lock()
	defer codecsMu.Unlock()
	if r := codecs[[2]int{k, m}]; r != nil {
		return r, nil
	}
	r, err := newRS(k, m)
	if err == nil {
		codecs[[2]int{k, m}] = r
	}
	return r, err
}

// newRS builds an RS(k, m) codec that no one else holds.
func newRS(k, m int) (*RS, error) {
	v := vandermonde(k+m, k)
	topInv := newMatrix(k, k)
	if err := v.subMatrix(seq(0, k)).invertInto(topInv); err != nil {
		return nil, fmt.Errorf("erasure: building systematic matrix: %w", err)
	}
	enc, err := v.mul(topInv)
	if err != nil {
		return nil, err
	}
	plans := make([][]rowPlan, m)
	for p := 0; p < m; p++ {
		plans[p] = makePlan(enc.row(k + p))
	}
	return &RS{k: k, m: m, enc: enc, parityPlans: plans}, nil
}

// Encode computes the m parity shards for k equally sized data shards.
// data must hold exactly k slices of identical length; parity must hold m
// slices of that same length (they are overwritten).
func (r *RS) Encode(data, parity [][]byte) error {
	if err := r.checkShards(data, r.k); err != nil {
		return err
	}
	if err := r.checkShards(parity, r.m); err != nil {
		return err
	}
	if r.m > 0 && len(data) > 0 && len(parity[0]) != len(data[0]) {
		return fmt.Errorf("erasure: parity shard size %d != data shard size %d", len(parity[0]), len(data[0]))
	}
	if r.encodeVec(data, parity) {
		return nil
	}
	for p := 0; p < r.m; p++ {
		encodeRow(r.parityPlans[p], data, parity[p])
	}
	return nil
}

// Verify reports whether the parity shards are consistent with the data
// shards.
func (r *RS) Verify(data, parity [][]byte) (bool, error) {
	if err := r.checkShards(data, r.k); err != nil {
		return false, err
	}
	if err := r.checkShards(parity, r.m); err != nil {
		return false, err
	}
	if r.m == 0 {
		return true, nil
	}
	fresh := make([][]byte, r.m)
	for i := range fresh {
		fresh[i] = make([]byte, len(parity[i]))
	}
	if err := r.Encode(data, fresh); err != nil {
		return false, err
	}
	for i := range fresh {
		if len(fresh[i]) != len(parity[i]) {
			return false, nil
		}
		for j := range fresh[i] {
			if fresh[i][j] != parity[i][j] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Reconstruct rebuilds missing shards in place. shards must hold k+m
// entries: index 0..k-1 data, k..k+m-1 parity; nil entries are the erasures.
// On success every entry is non-nil and correct. It fails with
// ErrTooManyErasures when fewer than k shards survive.
func (r *RS) Reconstruct(shards [][]byte) error {
	if len(shards) != r.k+r.m {
		return fmt.Errorf("erasure: got %d shards, want %d", len(shards), r.k+r.m)
	}
	var present []int
	size := -1
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
			if size == -1 {
				size = len(s)
			} else if len(s) != size {
				return fmt.Errorf("erasure: shard %d size %d != %d", i, len(s), size)
			}
		}
	}
	if len(present) == r.k+r.m {
		return nil // nothing missing
	}
	if len(present) < r.k {
		return ErrTooManyErasures
	}

	// Decode the missing data shards from the first k survivors.
	rows := present[:r.k]
	survivors := make([][]byte, r.k)
	for j, src := range rows {
		survivors[j] = shards[src]
	}
	var want []int
	var out [][]byte
	for d := 0; d < r.k; d++ {
		if shards[d] == nil {
			want = append(want, d)
			out = append(out, make([]byte, size))
		}
	}
	if err := r.Decode(rows, survivors, want, out); err != nil {
		return err
	}
	for i, d := range want {
		shards[d] = out[i]
	}
	// Rebuild missing parity from (now complete) data.
	for p := 0; p < r.m; p++ {
		if shards[r.k+p] != nil {
			continue
		}
		out := make([]byte, size)
		encodeRow(r.parityPlans[p], shards[:r.k], out)
		shards[r.k+p] = out
	}
	return nil
}

// Decode rebuilds data shards from exactly k surviving shards — the one
// decode path: Reconstruct runs on it, and callers that know which shards
// they need call it directly. survivors[j] is shard rows[j] (0..k-1 data,
// k..k+m-1 parity), all of one size and only read; out[i] is overwritten
// with data shard want[i]. An out[i] shorter than the shards receives that
// prefix of the shard and only that prefix is computed.
func (r *RS) Decode(rows []int, survivors [][]byte, want []int, out [][]byte) error {
	if len(rows) != r.k {
		return fmt.Errorf("erasure: got %d survivor rows, want %d", len(rows), r.k)
	}
	if err := r.checkShards(survivors, r.k); err != nil {
		return err
	}
	for _, row := range rows {
		if row < 0 || row >= r.k+r.m {
			return fmt.Errorf("erasure: survivor row %d out of range 0..%d", row, r.k+r.m-1)
		}
	}
	if len(out) != len(want) {
		return fmt.Errorf("erasure: got %d output buffers for %d wanted shards", len(out), len(want))
	}
	size := len(survivors[0])
	for i, d := range want {
		if d < 0 || d >= r.k {
			return fmt.Errorf("erasure: wanted shard %d is not a data shard 0..%d", d, r.k-1)
		}
		if len(out[i]) > size {
			return fmt.Errorf("erasure: output buffer %d size %d exceeds shard size %d", i, len(out[i]), size)
		}
	}
	if len(want) == 0 {
		return nil
	}
	// decode = (the survivors' rows of the encoding matrix)^-1, so
	// data[d] = dec.row(d) · survivors. The rows, reduced in place, and
	// their inverse share one buffer.
	buf := make([]byte, 2*r.k*r.k)
	rowsM := &matrix{rows: r.k, cols: r.k, data: buf[:r.k*r.k]}
	dec := &matrix{rows: r.k, cols: r.k, data: buf[r.k*r.k:]}
	for i, row := range rows {
		copy(rowsM.row(i), r.enc.row(row))
	}
	if err := rowsM.invertInto(dec); err != nil {
		return fmt.Errorf("erasure: decode matrix singular: %w", err)
	}
	var prefix [][]byte // survivors cut to a short output's length
	for i, d := range want {
		src := survivors
		if n := len(out[i]); n < size {
			prefix = append(prefix[:0], survivors...)
			for j := range prefix {
				prefix[j] = prefix[j][:n]
			}
			src = prefix
		}
		// 8-bit tables: decode coefficients are data-dependent one-shots,
		// not worth building (and permanently caching) 16-bit tables for.
		// A row of an invertible matrix is never zero, so every byte of
		// out[i] is assigned.
		first := true
		for j, c := range dec.row(d) {
			first = mulTerm(&rowPlan{c: c, tbl: mulRow(c)}, src[j], out[i], first)
		}
	}
	return nil
}

func (r *RS) checkShards(shards [][]byte, want int) error {
	if len(shards) != want {
		return fmt.Errorf("erasure: got %d shards, want %d", len(shards), want)
	}
	for i := 1; i < len(shards); i++ {
		if len(shards[i]) != len(shards[0]) {
			return fmt.Errorf("erasure: shard %d size %d != shard 0 size %d", i, len(shards[i]), len(shards[0]))
		}
	}
	return nil
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
