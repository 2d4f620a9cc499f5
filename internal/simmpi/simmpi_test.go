package simmpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// countingTracer records total bytes and message count per (src,dst).
type countingTracer struct {
	mu    sync.Mutex
	bytes map[[2]int]int
	msgs  int
}

func newCountingTracer() *countingTracer {
	return &countingTracer{bytes: map[[2]int]int{}}
}

func (t *countingTracer) Record(src, dst, n int) {
	t.mu.Lock()
	t.bytes[[2]int{src, dst}] += n
	t.msgs++
	t.mu.Unlock()
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		c := p.Comm()
		switch p.Rank() {
		case 0:
			return c.Send(1, 7, []byte("hello"))
		case 1:
			b, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(b) != "hello" {
				return fmt.Errorf("got %q", b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Messages with different tags must not match, regardless of order.
	err := Run(2, Options{}, func(p *Proc) error {
		c := p.Comm()
		if p.Rank() == 0 {
			if err := c.Send(1, 1, []byte("one")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("two"))
		}
		b2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		b1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(b1) != "one" || string(b2) != "two" {
			return fmt.Errorf("tag mismatch: %q %q", b1, b2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerTag(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		c := p.Comm()
		if p.Rank() == 0 {
			for i := 0; i < 50; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 50; i++ {
			b, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if b[0] != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		c := p.Comm()
		if p.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the in-flight message
			return c.Send(1, 1, nil)
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		b, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if b[0] != 1 {
			return fmt.Errorf("payload mutated after send: %v", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvWaitOrdering(t *testing.T) {
	// Receives posted and waited on in the opposite order of the sends
	// still complete, each with its own tag's payload.
	err := Run(2, Options{}, func(p *Proc) error {
		c := p.Comm()
		if p.Rank() == 0 {
			if err := c.Send(1, 5, []byte("a")); err != nil {
				return err
			}
			return c.Send(1, 6, []byte("b"))
		}
		r6 := c.Irecv(0, 6)
		r5 := c.Irecv(0, 5)
		b5, err := r5.Wait()
		if err != nil {
			return err
		}
		b6, err := r6.Wait()
		if err != nil {
			return err
		}
		if string(b5) != "a" || string(b6) != "b" {
			return fmt.Errorf("got %q %q", b5, b6)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	// Simultaneous neighbor exchange, the stencil pattern: every rank
	// sends before it receives, which only an eager send survives.
	const n = 4
	err := Run(n, Options{}, func(p *Proc) error {
		c := p.Comm()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		if err := c.Send(right, 9, []byte{byte(p.Rank())}); err != nil {
			return err
		}
		got, err := c.Recv(left, 9)
		if err != nil {
			return err
		}
		if got[0] != byte(left) {
			return fmt.Errorf("rank %d received %d, want %d", p.Rank(), got[0], left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankValidation(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		c := p.Comm()
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("send to rank 5 accepted")
		}
		if _, err := c.Recv(-1, 0); err == nil {
			return errors.New("recv from rank -1 accepted")
		}
		if err := c.Send(0, -3, nil); err == nil {
			return errors.New("negative user tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWorld(0, Options{}); err == nil {
		t.Error("NewWorld accepted size 0")
	}
	w, _ := NewWorld(1, Options{})
	if _, err := w.Proc(1); err == nil {
		t.Error("Proc accepted out-of-range rank")
	}
}

func TestAbortUnblocksReceivers(t *testing.T) {
	err := Run(3, Options{}, func(p *Proc) error {
		c := p.Comm()
		if p.Rank() == 0 {
			return errors.New("rank 0 exploded")
		}
		// Ranks 1 and 2 wait for a message that never comes; the abort
		// must unblock them with ErrAborted rather than deadlocking.
		_, err := c.Recv(0, 0)
		if errors.Is(err, ErrAborted) {
			return nil
		}
		return fmt.Errorf("recv returned %v, want ErrAborted", err)
	})
	if err == nil || err.Error() != "simmpi: rank 0: rank 0 exploded" {
		t.Fatalf("Run error = %v", err)
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16} {
		for root := 0; root < n; root += max(1, n/3) {
			payload := []byte(fmt.Sprintf("payload-from-%d", root))
			err := Run(n, Options{}, func(p *Proc) error {
				c := p.Comm()
				var in []byte
				if p.Rank() == root {
					in = payload
				}
				out, err := c.Bcast(root, in)
				if err != nil {
					return err
				}
				if !bytes.Equal(out, payload) {
					return fmt.Errorf("rank %d got %q", p.Rank(), out)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestBcastRootValidation(t *testing.T) {
	err := Run(2, Options{}, func(p *Proc) error {
		if _, err := p.Comm().Bcast(7, nil); err == nil {
			return errors.New("bcast accepted root 7")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const n = 5
	err := Run(n, Options{}, func(p *Proc) error {
		c := p.Comm()
		out, err := c.Gather(2, []byte{byte(p.Rank() * 10)})
		if err != nil {
			return err
		}
		if p.Rank() != 2 {
			if out != nil {
				return fmt.Errorf("non-root got %v", out)
			}
			return nil
		}
		for r := 0; r < n; r++ {
			if out[r][0] != byte(r*10) {
				return fmt.Errorf("gather[%d] = %d", r, out[r][0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherPowerOfTwoAndNot(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 3, 5, 6, 12} {
		err := Run(n, Options{}, func(p *Proc) error {
			c := p.Comm()
			out, err := c.Allgather([]byte(fmt.Sprintf("r%d", p.Rank())))
			if err != nil {
				return err
			}
			if len(out) != n {
				return fmt.Errorf("allgather returned %d blocks", len(out))
			}
			for r := 0; r < n; r++ {
				if string(out[r]) != fmt.Sprintf("r%d", r) {
					return fmt.Errorf("block %d = %q", r, out[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllgatherRecursiveDoublingPattern(t *testing.T) {
	// For a power-of-two size the trace must show each rank talking only to
	// partners at XOR distances 1,2,4,... — the Fig. 5b diagonal pattern.
	tr := newCountingTracer()
	const n = 8
	err := Run(n, Options{Tracer: tr}, func(p *Proc) error {
		_, err := p.Comm().Allgather([]byte{byte(p.Rank())})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for pair := range tr.bytes {
		d := pair[0] ^ pair[1]
		if d != 1 && d != 2 && d != 4 {
			t.Errorf("allgather communicated %d->%d (xor distance %d); want powers of two", pair[0], pair[1], d)
		}
	}
	if tr.msgs != n*3 { // log2(8)=3 rounds, one send per rank per round
		t.Errorf("message count = %d, want %d", tr.msgs, n*3)
	}
}

// messageTracer counts every (src, dst, bytes) message it sees.
type messageTracer struct {
	mu   sync.Mutex
	msgs map[[3]int]int
}

func (t *messageTracer) Record(src, dst, n int) {
	t.mu.Lock()
	t.msgs[[3]int{src, dst, n}]++
	t.mu.Unlock()
}

// AllgatherSchedule is the message multiset a traced Allgather sends, at
// every size from 1 to 40 (powers of two and the gather+broadcast
// fallback) and at two payload sizes.
func TestAllgatherScheduleMatchesTracedAllgather(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for _, payload := range []int{1, 5} {
			ran := &messageTracer{msgs: map[[3]int]int{}}
			err := Run(n, Options{Tracer: ran}, func(p *Proc) error {
				_, err := p.Comm().Allgather(make([]byte, payload))
				return err
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			sched := &messageTracer{msgs: map[[3]int]int{}}
			AllgatherSchedule(n, payload, sched)
			if len(sched.msgs) != len(ran.msgs) {
				t.Errorf("n=%d payload=%d: schedule has %d distinct messages, the run %d", n, payload, len(sched.msgs), len(ran.msgs))
			}
			for m, k := range ran.msgs {
				if sched.msgs[m] != k {
					t.Errorf("n=%d payload=%d: message %d->%d of %d bytes sent %d times, scheduled %d", n, payload, m[0], m[1], m[2], k, sched.msgs[m])
				}
			}
		}
	}
}

func TestTracerSeesPayloadBytes(t *testing.T) {
	tr := newCountingTracer()
	err := Run(2, Options{Tracer: tr}, func(p *Proc) error {
		c := p.Comm()
		if p.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 1000))
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.bytes[[2]int{0, 1}]; got != 1000 {
		t.Errorf("traced bytes = %d, want 1000", got)
	}
}

func TestLargeWorldStencilSweep(t *testing.T) {
	// 256 ranks doing 10 iterations of neighbor exchange + allgather:
	// a smoke test that the runtime scales to the experiment sizes.
	const n, iters = 256, 10
	err := Run(n, Options{}, func(p *Proc) error {
		c := p.Comm()
		for it := 0; it < iters; it++ {
			if p.Rank() > 0 {
				if err := c.Send(p.Rank()-1, Tag(it), []byte{1}); err != nil {
					return err
				}
			}
			if p.Rank() < n-1 {
				if err := c.Send(p.Rank()+1, Tag(it), []byte{1}); err != nil {
					return err
				}
				if _, err := c.Recv(p.Rank()+1, Tag(it)); err != nil {
					return err
				}
			}
			if p.Rank() > 0 {
				if _, err := c.Recv(p.Rank()-1, Tag(it)); err != nil {
					return err
				}
			}
			if _, err := c.Allgather([]byte{1}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
