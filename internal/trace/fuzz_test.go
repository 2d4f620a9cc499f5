package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// ReadCSR is the one reader of the HCTR format: trace files named by a
// scenario and every file of the disk trace cache go through it. The fuzz
// target pins that no input crashes it and that anything it accepts is a
// fixed point of WriteTo → ReadCSR: same NNZ, totals and cells.

// hostileNNZ is a v2 document over four ranks whose header claims 2^40
// pairs and whose body carries one.
func hostileNNZ() []byte {
	doc := writeV2(4, [][4]int64{{0, 1, 10, 1}})
	binary.LittleEndian.PutUint64(doc[12:], 1<<40)
	return doc
}

func FuzzReadCSR(f *testing.F) {
	m := stencilMatrix(16, 1234)
	_ = m.Add(3, 9, 0) // a zero-byte cell
	var v1 bytes.Buffer
	if _, err := m.WriteTo(&v1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v1.Bytes()[:v1.Len()-5])
	f.Add(writeV2(6, [][4]int64{{0, 1, 1000, 3}, {4, 5, 42, 1}, {5, 0, 7, 7}}))
	f.Add(writeV2(4, [][4]int64{{0, 1, 10, 1}, {0, 1, -3, 2}})) // a repeated pair
	f.Add(writeV2(4, [][4]int64{{0, 9, 10, 1}}))
	f.Add(hostileNNZ())
	f.Add([]byte("HCTR\x09\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("not a trace file at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The rank bound is the caller's allocation budget (O(MaxRanks) per
		// read); a small one keeps each execution cheap.
		opts := ReadOptions{MaxRanks: 1 << 12}
		c, err := ReadCSR(bytes.NewReader(data), opts)
		if err != nil {
			return // rejected input; only crashes are failures
		}
		if int64(c.NNZ()) > int64(len(data))/24 {
			t.Fatalf("%d pairs decoded from %d bytes", c.NNZ(), len(data))
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		c2, err := ReadCSR(&buf, opts)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", c2, c)
		}
	})
}

// The header's pair count sizes nothing: a reader handed 2^40 (v2) or 2^32-1
// (v1) claimed pairs over a one-record body fails on the missing record
// having allocated for the ranks and the bytes present only.
func TestReadCSRAllocationFollowsInput(t *testing.T) {
	v2 := hostileNNZ()
	v1 := append([]byte("HCTR\x01\x00\x00\x00\x04\x00\x00\x00\xff\xff\xff\xff"), v2[20:]...)
	for name, doc := range map[string][]byte{"v1": v1, "v2": v2} {
		var err error
		got := allocated(func() { _, err = ReadCSR(bytes.NewReader(doc)) })
		if err == nil {
			t.Errorf("%s: accepted a body shorter than its header claims", name)
		}
		if got > 64<<10 {
			t.Errorf("%s: reading a %d-byte document allocated %d bytes", name, len(doc), got)
		}
	}
}

// The symmetric fold against the general one, on whatever stencil, volume
// and placement the fuzzer draws: a block placement of ppn ranks a node and a
// strided one (stridedPlacement) over the same node count. Width 0 is the 1-D
// rule; options NewStencil rejects (a width past n, a volume past int64) are
// skipped, so the volumes that reach the fold run right up to the bound.
func FuzzStencilFoldMatchesCSR(f *testing.F) {
	f.Add(uint16(64), uint16(4), uint8(4), uint8(3), int64(100), int64(1536))
	f.Add(uint16(1), uint16(0), uint8(9), uint8(1), int64(1), int64(1))
	f.Add(uint16(7), uint16(7), uint8(1), uint8(5), int64(1<<20), int64(1<<38))
	f.Add(uint16(300), uint16(13), uint8(2), uint8(7), int64(1<<31), int64(1<<32))
	f.Fuzz(func(t *testing.T, n, width uint16, ppn, stride uint8, iterations, bytesPerMsg int64) {
		ranks := 1 + int(n)%512
		opts := SyntheticOptions{Width: int(width), Iterations: int(iterations), BytesPerMsg: bytesPerMsg}
		if width > 0 {
			opts.Pattern = Stencil2D
		}
		s, err := NewStencil(ranks, opts)
		if err != nil {
			return
		}
		if s.bytes[0] <= 0 || (s.nnz > 0 && s.TotalBytes()/int64(s.nnz) != s.bytes[0]) {
			t.Fatalf("accepted volume wraps: pair %d, total %d", s.bytes[0], s.TotalBytes())
		}
		c, err := Synthetic(ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		per := 1 + int(ppn)
		foldsAlike(t, "block", s, c, mustBlock(t, ranks, per))
		foldsAlike(t, "strided", s, c, stridedPlacement(t, ranks, (ranks+per-1)/per, 1+int(stride), 2))
	})
}
