package erasure

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// tableReference is RS(k, m) on the table kernel, through a codec of its
// own: the parity of data and data shards 0..m-1 decoded from the last k of
// the k+m shards.
func tableReference(t *testing.T, k, m int, data [][]byte) (parity, decoded [][]byte) {
	t.Helper()
	size := len(data[0])
	withTableKernel(func() {
		rs, err := newRS(k, m)
		if err != nil {
			t.Fatal(err)
		}
		parity = make([][]byte, m)
		decoded = make([][]byte, m)
		for i := range m {
			parity[i], decoded[i] = make([]byte, size), make([]byte, size)
		}
		if err := rs.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		all := append(append([][]byte(nil), data...), parity...)
		if err := rs.Decode(seq(m, k+m), all[m:], seq(0, m), decoded); err != nil {
			t.Fatal(err)
		}
	})
	return parity, decoded
}

// TestSharedCodecConcurrentFirstUse starts many goroutines at once on the
// first use of one (k, m), beside a few on another shape. Every goroutine
// of a shape must get the same codec, whether through NewRS or
// NewGroupEncoder, and encode and decode the same bytes as the table
// kernel. Under the race detector (make race, make test-purego) it also
// checks that the cache and the shared codecs are only read concurrently.
func TestSharedCodecConcurrentFirstUse(t *testing.T) {
	const size, workers = 4<<10 + 7, 24
	shapes := [][2]int{{37, 19}, {11, 5}}
	codecsMu.Lock()
	for _, s := range shapes {
		delete(codecs, s) // the first use is this test's, whatever ran before
	}
	codecsMu.Unlock()

	rng := rand.New(rand.NewSource(44))
	data := make([][][]byte, len(shapes))
	wantParity := make([][][]byte, len(shapes))
	wantDecoded := make([][][]byte, len(shapes))
	for si, s := range shapes {
		data[si] = unaligned(rng, s[0], size, true)
		wantParity[si], wantDecoded[si] = tableReference(t, s[0], s[1], data[si])
	}

	shapeOf := func(w int) int { return w % 5 / 4 } // one in five on the second shape
	got := make([]*RS, workers)
	errs := make([]string, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		si := shapeOf(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			k, m := shapes[si][0], shapes[si][1]
			var rs *RS
			if w%2 == 0 {
				var err error
				if rs, err = NewRS(k, m); err != nil {
					errs[w] = err.Error()
					return
				}
			} else {
				ge, err := NewGroupEncoder(k, m, 0, 0)
				if err != nil {
					errs[w] = err.Error()
					return
				}
				rs = (*RS)(ge)
			}
			got[w] = rs
			parity := make([][]byte, m)
			for i := range parity {
				parity[i] = make([]byte, size)
			}
			if err := rs.Encode(data[si], parity); err != nil {
				errs[w] = err.Error()
				return
			}
			all := append(append([][]byte(nil), data[si]...), parity...)
			decoded := make([][]byte, m)
			for i := range decoded {
				decoded[i] = make([]byte, size)
			}
			if err := rs.Decode(seq(m, k+m), all[m:], seq(0, m), decoded); err != nil {
				errs[w] = err.Error()
				return
			}
			for i := range parity {
				if !bytes.Equal(parity[i], wantParity[si][i]) {
					errs[w] = "parity differs from the table kernel"
					return
				}
			}
			for i := range decoded {
				if !bytes.Equal(decoded[i], wantDecoded[si][i]) {
					errs[w] = "decode differs from the table kernel"
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for w := range workers {
		if errs[w] != "" {
			t.Errorf("goroutine %d: %s", w, errs[w])
		}
		if first := shapeOf(w) * 4; got[w] != got[first] {
			t.Errorf("goroutine %d got codec %p, goroutine %d got %p for the same shape", w, got[w], first, got[first])
		}
	}
	if got[0] == got[4] {
		t.Error("two shapes share one codec")
	}
}
