package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSerializeRoundTrip(t *testing.T) {
	rec := stencilRecorder(16, 1234)
	rec.Record(3, 9, 42)
	m := rec.Freeze()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("cells or totals changed across the round trip")
	}
}

// A cell with messages but no bytes survives a write/read: a hand-built
// trace keeps its TotalMsgs (the dense writer used to skip such cells).
func TestSerializeKeepsZeroByteCells(t *testing.T) {
	rec := NewRecorder(4)
	rec.Record(1, 2, 0)
	rec.Record(1, 2, 0)
	rec.Record(3, 0, 9)
	var buf bytes.Buffer
	if _, err := rec.Freeze().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalMsgs() != 3 || got.TotalBytes() != 9 {
		t.Errorf("read back %d msgs / %d bytes, want 3 / 9", got.TotalMsgs(), got.TotalBytes())
	}
	if b, ms := got.At(1, 2); b != 0 || ms != 2 {
		t.Errorf("zero-byte cell (1,2) = %d/%d, want 0/2", b, ms)
	}
}

func TestSerializeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewRecorder(4).Freeze().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 16 { // header only
		t.Errorf("empty matrix serialized to %d bytes, want 16", buf.Len())
	}
	got, err := ReadCSR(&buf)
	if err != nil || got.Ranks() != 4 || got.TotalBytes() != 0 {
		t.Errorf("empty round trip: %v, %v", got, err)
	}
}

func TestReadCSRRejectsGarbage(t *testing.T) {
	if _, err := ReadCSR(strings.NewReader("not a trace file at all")); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := ReadCSR(strings.NewReader("HC")); err == nil {
		t.Error("accepted truncated header")
	}
	// right magic, wrong version
	bad := []byte("HCTR\x09\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00")
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Error("accepted unknown version")
	}
	// truncated records
	var buf bytes.Buffer
	_, _ = stencilTrace(4, 10).WriteTo(&buf)
	cut := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadCSR(bytes.NewReader(cut)); err == nil {
		t.Error("accepted truncated body")
	}
	// out-of-range pair
	evil := []byte("HCTR\x01\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00" +
		"\x07\x00\x00\x00\x00\x00\x00\x00" + // src 7 of 2 ranks
		"\x01\x00\x00\x00\x00\x00\x00\x00" +
		"\x01\x00\x00\x00\x00\x00\x00\x00")
	if _, err := ReadCSR(bytes.NewReader(evil)); err == nil {
		t.Error("accepted out-of-range pair")
	}
}

func TestSerializeSparseIsCompact(t *testing.T) {
	// A 512-rank stencil has ~1022 nonzero cells: the sparse file must be
	// a small fraction of the dense 512×512 representation.
	var buf bytes.Buffer
	if _, err := stencilTrace(512, 100).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dense := 512 * 512 * 16
	if buf.Len() > dense/8 {
		t.Errorf("sparse encoding %d bytes vs dense %d — not compact", buf.Len(), dense)
	}
}

// Property: any random sparse matrix round-trips exactly.
func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		rng := rand.New(rand.NewSource(seed))
		rec := NewRecorder(n)
		for i := 0; i < 2*n; i++ {
			rec.Record(rng.Intn(n), rng.Intn(n), rng.Intn(1_000_000)+1)
		}
		m := rec.Freeze()
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadCSR(&buf)
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReadOptionsMaxRanks covers the configurable plausibility bound: the
// default rejects headers past 2^22 ranks with a typed error, and a raised
// bound admits them.
func TestReadOptionsMaxRanks(t *testing.T) {
	// An empty trace claiming n ranks: header only, nnz = 0.
	header := func(n uint32) []byte {
		b := []byte("HCTR\x01\x00\x00\x00")
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		return append(b, 0, 0, 0, 0)
	}

	over := uint32(DefaultMaxRanks + 1)
	read := func(b []byte, opts ...ReadOptions) error {
		_, err := ReadCSR(bytes.NewReader(b), opts...)
		return err
	}
	t.Run("ReadCSR", func(t *testing.T) {
		err := read(header(over))
		if err == nil {
			t.Fatal("default bound admitted 2^22+1 ranks")
		}
		var rce *RankCountError
		if !errors.As(err, &rce) {
			t.Fatalf("error is %T, want *RankCountError: %v", err, err)
		}
		if rce.Ranks != int(over) || rce.Max != DefaultMaxRanks {
			t.Fatalf("RankCountError = %+v, want Ranks=%d Max=%d", rce, over, DefaultMaxRanks)
		}
		// The same bound, explicitly configured lower.
		err = read(header(1024), ReadOptions{MaxRanks: 512})
		if !errors.As(err, &rce) || rce.Max != 512 {
			t.Fatalf("custom bound not applied: %v", err)
		}
	})

	// ReadCSR allocates O(n), so a raised bound is actually usable at
	// 2^22+1 ranks.
	got, err := ReadCSR(bytes.NewReader(header(over)), ReadOptions{MaxRanks: 1 << 23})
	if err != nil {
		t.Fatalf("raised bound still rejected: %v", err)
	}
	if got.Ranks() != int(over) {
		t.Fatalf("Ranks = %d, want %d", got.Ranks(), over)
	}
}

// TestTraceVersionSelection pins the compatibility contract: writers stay
// on the v1 header for every pair count a uint32 can carry and switch to v2
// exactly at overflow.
func TestTraceVersionSelection(t *testing.T) {
	cases := []struct {
		nnz  int64
		want uint32
	}{
		{0, 1}, {1, 1}, {1 << 20, 1},
		{math.MaxUint32, 1},
		{math.MaxUint32 + 1, 2},
		{1 << 40, 2},
	}
	for _, tc := range cases {
		if got := traceVersionFor(tc.nnz); got != tc.want {
			t.Errorf("traceVersionFor(%d) = %d, want %d", tc.nnz, got, tc.want)
		}
	}
}

// Every trace this repository can materialize has nnz far below uint32, so
// written files must stay byte-identical to the historical v1 encoding.
func TestWriteToStaysV1(t *testing.T) {
	var buf bytes.Buffer
	if _, err := stencilTrace(8, 100).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) < 16 {
		t.Fatal("short output")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != 1 {
		t.Errorf("writer used version %d for a small trace, want 1", v)
	}
}

// A record's counts are outside input: a negative cell, or cells summing
// past int64, would give a logged fraction outside [0, 1] (which the 20 %
// baseline would then accept) or totals that wrap, so the document is an
// error. A cell at MaxInt64 alone is a legal trace.
func TestReadCSRRejectsNonsenseCells(t *testing.T) {
	for name, doc := range map[string][]byte{
		"negative bytes":   writeV2(4, [][4]int64{{0, 1, 100, 1}, {1, 2, -10, 1}}),
		"negative msgs":    writeV2(4, [][4]int64{{0, 1, 100, -1}}),
		"bytes past int64": writeV2(4, [][4]int64{{0, 1, math.MaxInt64, 1}, {1, 0, 1, 1}}),
		"msgs past int64":  writeV2(4, [][4]int64{{0, 1, 1, math.MaxInt64}, {2, 3, 1, 1}}),
	} {
		if c, err := ReadCSR(bytes.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted, totals %d bytes / %d msgs", name, c.TotalBytes(), c.TotalMsgs())
		}
	}
	c, err := ReadCSR(bytes.NewReader(writeV2(4, [][4]int64{{0, 1, math.MaxInt64, 1}})))
	if err != nil || c.TotalBytes() != math.MaxInt64 {
		t.Errorf("a MaxInt64 cell alone: %v", err)
	}
}

// writeV2 emits a hand-rolled v2 document with the given records — the
// shape a megarank writer will produce — so the reader's v2 path is
// exercised without materializing 4B pairs.
func writeV2(n int, recs [][4]int64) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, 20)
	copy(hdr, "HCTR")
	binary.LittleEndian.PutUint32(hdr[4:], 2)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(recs)))
	buf.Write(hdr)
	rec := make([]byte, 24)
	for _, r := range recs {
		binary.LittleEndian.PutUint32(rec[0:], uint32(r[0]))
		binary.LittleEndian.PutUint32(rec[4:], uint32(r[1]))
		binary.LittleEndian.PutUint64(rec[8:], uint64(r[2]))
		binary.LittleEndian.PutUint64(rec[16:], uint64(r[3]))
		buf.Write(rec)
	}
	return buf.Bytes()
}

// TestReadV2Trace: the reader must accept a v2 header and reproduce the
// cells exactly.
func TestReadV2Trace(t *testing.T) {
	doc := writeV2(6, [][4]int64{
		{0, 1, 1000, 3},
		{4, 5, 42, 1},
		{5, 0, 7, 7},
	})
	c, err := ReadCSR(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("ReadCSR rejected v2: %v", err)
	}
	for _, want := range [][4]int64{{0, 1, 1000, 3}, {4, 5, 42, 1}, {5, 0, 7, 7}} {
		b, ms := c.At(int(want[0]), int(want[1]))
		if b != want[2] || ms != want[3] {
			t.Errorf("CSR cell (%d,%d) = %d/%d, want %d/%d", want[0], want[1], b, ms, want[2], want[3])
		}
	}
	// A v2 document round-trips back out as v1 (its nnz fits uint32) and
	// still carries the same cells — the interchange contract.
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != 1 {
		t.Errorf("re-written small trace used version %d, want 1", v)
	}
	c2, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.TotalBytes() != c.TotalBytes() || c2.TotalMsgs() != c.TotalMsgs() {
		t.Error("v2→v1 round trip changed totals")
	}
}

// Corrupt v2 headers must fail cleanly: truncated nnz field, out-of-range
// records, implausible pair counts.
func TestReadV2TraceErrors(t *testing.T) {
	doc := writeV2(4, [][4]int64{{0, 1, 10, 1}})
	if _, err := ReadCSR(bytes.NewReader(doc[:14])); err == nil {
		t.Error("accepted truncated v2 header")
	}
	bad := writeV2(4, [][4]int64{{0, 9, 10, 1}}) // dst outside n
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil {
		t.Error("accepted out-of-range v2 record")
	}
	huge := writeV2(4, nil)
	binary.LittleEndian.PutUint64(huge[12:], math.MaxUint64) // nnz > int64
	if _, err := ReadCSR(bytes.NewReader(huge)); err == nil {
		t.Error("accepted implausible v2 pair count")
	}
}
