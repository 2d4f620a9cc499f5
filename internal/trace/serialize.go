package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hierclust/internal/topology"
)

// The on-disk format is a compact sparse binary encoding:
//
//	v1: magic "HCTR" | uint32 version=1 | uint32 N | uint32 nnz
//	v2: magic "HCTR" | uint32 version=2 | uint32 N | uint64 nnz
//	then nnz × { uint32 src | uint32 dst | int64 bytes | int64 msgs }
//
// so a 1088-rank tsunami trace (≈220k messages but only ≈5k distinct pairs)
// costs ~120 KB instead of the 9.5 MB dense CSV.
//
// Writers emit the v2 header only when the pair count overflows uint32
// (~4.3B distinct pairs — megarank machines), so every trace a v1-only
// reader could represent stays byte-identical to what it always was; the
// reader accepts both versions.

const (
	traceMagic    = "HCTR"
	traceVersion1 = 1
	traceVersion2 = 2
)

// traceVersionFor returns the lowest on-disk version whose header can carry
// the pair count.
func traceVersionFor(nnz int64) uint32 {
	if nnz > math.MaxUint32 {
		return traceVersion2
	}
	return traceVersion1
}

// writeTraceHeader emits the version-appropriate header for n ranks and nnz
// stored pairs.
func writeTraceHeader(w io.Writer, n int, nnz int64) (int64, error) {
	ver := traceVersionFor(nnz)
	var hdr []byte
	if ver == traceVersion1 {
		hdr = make([]byte, 4+4+4+4)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(nnz))
	} else {
		hdr = make([]byte, 4+4+4+8)
		binary.LittleEndian.PutUint64(hdr[12:], uint64(nnz))
	}
	copy(hdr, traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], ver)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	written, err := w.Write(hdr)
	return int64(written), err
}

// readTraceHeader parses a v1 or v2 header, applying the rank-count
// plausibility bound from opts.
func readTraceHeader(r io.Reader, opts []ReadOptions) (n int, nnz int64, err error) {
	pre := make([]byte, 12)
	if _, err := io.ReadFull(r, pre); err != nil {
		return 0, 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(pre[:4]) != traceMagic {
		return 0, 0, fmt.Errorf("trace: bad magic %q", pre[:4])
	}
	ver := binary.LittleEndian.Uint32(pre[4:])
	n = int(binary.LittleEndian.Uint32(pre[8:]))
	switch ver {
	case traceVersion1:
		var raw [4]byte
		if _, err := io.ReadFull(r, raw[:]); err != nil {
			return 0, 0, fmt.Errorf("trace: reading header: %w", err)
		}
		nnz = int64(binary.LittleEndian.Uint32(raw[:]))
	case traceVersion2:
		var raw [8]byte
		if _, err := io.ReadFull(r, raw[:]); err != nil {
			return 0, 0, fmt.Errorf("trace: reading header: %w", err)
		}
		u := binary.LittleEndian.Uint64(raw[:])
		if u > math.MaxInt64 {
			return 0, 0, fmt.Errorf("trace: header claims %d pairs, beyond any plausible trace", u)
		}
		nnz = int64(u)
	default:
		return 0, 0, fmt.Errorf("trace: unsupported version %d", ver)
	}
	if err := checkRanks(n, opts); err != nil {
		return 0, 0, err
	}
	return n, nnz, nil
}

// DefaultMaxRanks is the rank-count plausibility bound applied by ReadCSR
// when the caller passes no ReadOptions. A corrupt or hostile header
// claiming more ranks than this is rejected before any allocation.
const DefaultMaxRanks = 1 << 22

// ReadOptions tunes trace deserialization. The zero value reproduces the
// historical behavior (DefaultMaxRanks).
type ReadOptions struct {
	// MaxRanks bounds the rank count a trace header may claim; 0 means
	// DefaultMaxRanks. Raise it to read traces from machines beyond 2^22
	// ranks; the reader allocates O(MaxRanks), so the bound is the
	// caller's allocation budget.
	MaxRanks int
}

func (o *ReadOptions) maxRanks() int {
	if o == nil || o.MaxRanks <= 0 {
		return DefaultMaxRanks
	}
	return o.MaxRanks
}

// RankCountError reports a trace header whose rank count falls outside the
// configured plausibility bound. Callers distinguishing "corrupt file" from
// "bound too low for this machine" can errors.As for it and inspect Max.
type RankCountError struct {
	// Ranks is the rank count the header claimed.
	Ranks int
	// Max is the bound in effect (ReadOptions.MaxRanks or DefaultMaxRanks).
	Max int
}

func (e *RankCountError) Error() string {
	return fmt.Sprintf("trace: header claims %d ranks, outside plausibility bound %d (raise ReadOptions.MaxRanks for larger machines)", e.Ranks, e.Max)
}

// checkRanks applies the plausibility bound from opts (first entry wins;
// the reader accepts at most one).
func checkRanks(n int, opts []ReadOptions) error {
	max := DefaultMaxRanks
	if len(opts) > 0 {
		max = opts[0].maxRanks()
	}
	if n < 0 || n > max {
		return &RankCountError{Ranks: n, Max: max}
	}
	return nil
}

// WriteTo serializes the CSR matrix in sparse binary form: the header, then
// every row's cells.
func (c *CSR) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	written, err := writeTraceHeader(bw, c.n, int64(c.NNZ()))
	if err != nil {
		return written, err
	}
	rec := make([]byte, 4+4+8+8)
	for s := 0; s < c.n; s++ {
		for i := c.rowPtr[s]; i < c.rowPtr[s+1]; i++ {
			binary.LittleEndian.PutUint32(rec[0:], uint32(s))
			binary.LittleEndian.PutUint32(rec[4:], uint32(c.col[i]))
			binary.LittleEndian.PutUint64(rec[8:], uint64(c.bytes[i]))
			binary.LittleEndian.PutUint64(rec[16:], uint64(c.msgs[i]))
			n, err := bw.Write(rec)
			written += int64(n)
			if err != nil {
				return written, err
			}
		}
	}
	return written, bw.Flush()
}

// ReadCSR deserializes a matrix written by WriteTo (either header version).
// Memory follows the rank count and the records actually present, never the
// header's pair count. An optional ReadOptions raises the rank-count bound.
// A record with a negative byte or message count, or records whose counts
// sum past int64, make the document an error: the logged fraction of what
// is accepted stays within [0, 1].
func ReadCSR(r io.Reader, opts ...ReadOptions) (*CSR, error) {
	br := bufio.NewReader(r)
	n, nnz, err := readTraceHeader(br, opts)
	if err == nil {
		err = topology.CheckCount("ranks", n)
	}
	if err != nil {
		return nil, err
	}
	b := newSparseBuilder(n)
	rec := make([]byte, 24)
	for i := int64(0); i < nnz; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("trace: reading record %d/%d: %w", i, nnz, err)
		}
		s := int(binary.LittleEndian.Uint32(rec[0:]))
		d := int(binary.LittleEndian.Uint32(rec[4:]))
		if s < 0 || s >= n || d < 0 || d >= n {
			return nil, fmt.Errorf("trace: record %d has pair (%d,%d) outside %d ranks", i, s, d, n)
		}
		bytes := int64(binary.LittleEndian.Uint64(rec[8:]))
		msgs := int64(binary.LittleEndian.Uint64(rec[16:]))
		if bytes < 0 || msgs < 0 {
			return nil, fmt.Errorf("trace: record %d has a negative cell (%d bytes, %d msgs)", i, bytes, msgs)
		}
		if !b.set(s, d, bytes, msgs) {
			return nil, fmt.Errorf("trace: record %d takes the trace's totals past int64", i)
		}
	}
	return b.freeze(), nil
}
