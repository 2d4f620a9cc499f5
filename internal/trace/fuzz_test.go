package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// ReadCSR is the one reader of the HCTR format: every trace file named by
// a scenario goes through it. The fuzz
// target pins that no input crashes it, that anything it accepts has
// non-negative cells whose sums are its totals, and that it is a fixed
// point of WriteTo → ReadCSR: same NNZ, totals and cells.

// hostileNNZ is a v2 document over four ranks whose header claims 2^40
// pairs and whose body carries one.
func hostileNNZ() []byte {
	doc := writeV2(4, [][4]int64{{0, 1, 10, 1}})
	binary.LittleEndian.PutUint64(doc[12:], 1<<40)
	return doc
}

func FuzzReadCSR(f *testing.F) {
	rec := stencilRecorder(16, 1234)
	rec.Record(3, 9, 0) // a zero-byte cell
	var v1 bytes.Buffer
	if _, err := rec.Freeze().WriteTo(&v1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v1.Bytes()[:v1.Len()-5])
	f.Add(writeV2(6, [][4]int64{{0, 1, 1000, 3}, {4, 5, 42, 1}, {5, 0, 7, 7}}))
	f.Add(writeV2(4, [][4]int64{{0, 1, 10, 1}, {0, 1, -3, 2}})) // a repeated pair, then a negative cell
	f.Add(writeV2(4, [][4]int64{{0, 9, 10, 1}}))
	f.Add(hostileNNZ())
	f.Add([]byte("HCTR\x09\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("not a trace file at all"))
	f.Add(writeV2(4, [][4]int64{{0, 1, math.MaxInt64, 1}, {1, 0, 1, 1}})) // totals past int64
	f.Add(writeV2(4, [][4]int64{{0, 1, 10, 1}, {0, 1, 7, 2}}))            // a repeated pair, overwritten

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
		var bytesSum, msgsSum int64
		for i := range c.col {
			if c.bytes[i] < 0 || c.msgs[i] < 0 {
				t.Fatalf("accepted a negative cell: %d bytes, %d msgs", c.bytes[i], c.msgs[i])
			}
			bytesSum += c.bytes[i]
			msgsSum += c.msgs[i]
		}
		if bytesSum != c.TotalBytes() || msgsSum != c.TotalMsgs() {
			t.Fatalf("totals %d/%d, cells sum to %d/%d", c.TotalBytes(), c.TotalMsgs(), bytesSum, msgsSum)
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

// The CSR's renderers against the dense oracle's, on whatever sparse trace
// and pixel bound the fuzzer draws: zero-byte and negative cells included,
// and rank counts on both sides of the bound, so the full-resolution and
// the pooled paths both run (a bound of 0 picks each renderer's default).
func FuzzCSRRendersMatchDense(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(120), uint8(40))
	f.Add(int64(2), uint8(200), uint8(255), uint8(7))
	f.Add(int64(3), uint8(0), uint8(3), uint8(0))
	f.Add(int64(4), uint8(99), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pairs, maxDim uint8) {
		n := 1 + int(nRaw)
		rng := rand.New(rand.NewSource(seed))
		b := newSparseBuilder(n)
		for i := 0; i < int(pairs); i++ {
			bytes := int64(rng.Intn(1_000_000))
			switch rng.Intn(6) {
			case 0:
				bytes = 0
			case 1:
				bytes = -bytes
			}
			_ = b.add(rng.Intn(n), rng.Intn(n), bytes)
		}
		c := b.freeze()
		m, dim := denseOf(c), int(maxDim)
		if got, want := c.ASCIIHeatmap(dim), m.asciiHeatmap(dim); got != want {
			t.Fatalf("ASCIIHeatmap(%d):\n%s\ndense:\n%s", dim, got, want)
		}
		if got, want := c.PGM(dim), m.pgm(dim); got != want {
			t.Fatalf("PGM(%d):\n%s\ndense:\n%s", dim, got, want)
		}
		if got, want := c.GridCSV(), m.gridCSV(); got != want {
			t.Fatalf("GridCSV:\n%s\ndense:\n%s", got, want)
		}
	})
}

// The stencil's folds against the CSR's, on whatever stencil, volume and
// placement the fuzzer draws: a block placement of ppn ranks a node (the
// closed-form node graph) and a strided one (stridedPlacement, the symmetric
// read-back of the general fold) over the same node count, and the closed-form
// logged fraction under a random part of 1 to 5 clusters. Width 0 is the 1-D
// rule; options NewStencil rejects (a width past n, a volume past int64) are
// skipped, so the volumes that reach the folds run right up to the bound.
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
		block, strided := mustBlock(t, ranks, per), stridedPlacement(t, ranks, (ranks+per-1)/per, 1+int(stride), 2)
		if block.BlockPPN() == 0 || strided.BlockPPN() != 0 {
			t.Fatal("the block placement must take the closed form and the strided one the general fold")
		}
		foldsAlike(t, "block", s, c, block)
		foldsAlike(t, "strided", s, c, strided)
		part := randomPart(rand.New(rand.NewSource(iterations^bytesPerMsg)), ranks, 1+int(stride)%5)
		got, err1 := s.LoggedFraction(part)
		want, err2 := c.LoggedFraction(part)
		if err1 != nil || err2 != nil || got != want {
			t.Fatalf("logged fraction %v (%v), CSR %v (%v)", got, err1, want, err2)
		}
	})
}
