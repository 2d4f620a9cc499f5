package simmpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestCollectivesAgainstReferenceProperty drives point-to-point traffic and
// every collective with random world sizes, roots, and payloads, and checks
// each delivered byte against the payload table the ranks were handed.
func TestCollectivesAgainstReferenceProperty(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 131))
		n := 1 + rng.Intn(12)
		root := rng.Intn(n)
		payloads := make([][]byte, n)
		for r := 0; r < n; r++ {
			payloads[r] = make([]byte, 1+rng.Intn(64))
			rng.Read(payloads[r])
		}

		err := Run(n, Options{}, func(p *Proc) error {
			c := p.Comm()
			me := p.Rank()

			// Send/Recv: a ring shift delivers the left neighbour's payload.
			left := (me - 1 + n) % n
			if err := c.Send((me+1)%n, Tag(trial), payloads[me]); err != nil {
				return err
			}
			got, err := c.Recv(left, Tag(trial))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payloads[left]) {
				return fmt.Errorf("send/recv: rank %d got wrong payload from %d", me, left)
			}

			// Bcast: everyone ends with root's payload.
			got, err = c.Bcast(root, payloads[root])
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payloads[root]) {
				return fmt.Errorf("bcast: rank %d got wrong payload", me)
			}

			// Allgather: everyone ends with everyone's payload.
			all, err := c.Allgather(payloads[me])
			if err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(all[r], payloads[r]) {
					return fmt.Errorf("allgather: rank %d block %d wrong", me, r)
				}
			}

			// Gather at root.
			g, err := c.Gather(root, payloads[me])
			if err != nil {
				return err
			}
			if me == root {
				for r := 0; r < n; r++ {
					if !bytes.Equal(g[r], payloads[r]) {
						return fmt.Errorf("gather: block %d wrong at root", r)
					}
				}
			} else if g != nil {
				return fmt.Errorf("gather: non-root rank %d got data", me)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (n=%d root=%d): %v", trial, n, root, err)
		}
	}
}

// TestCollectiveSequences runs several different collectives back to back
// on the same communicator, which exercises the per-communicator sequence
// numbering that keeps rounds from cross-matching.
func TestCollectiveSequences(t *testing.T) {
	const n = 8
	err := Run(n, Options{}, func(p *Proc) error {
		c := p.Comm()
		for i := 0; i < 10; i++ {
			g, err := c.Gather(i%n, []byte{byte(p.Rank() ^ i)})
			if err != nil {
				return err
			}
			for r := range g {
				if g[r][0] != byte(r^i) {
					return fmt.Errorf("round %d: gather block %d = %d", i, r, g[r][0])
				}
			}
			out, err := c.Bcast(i%n, []byte{byte(i)})
			if err != nil {
				return err
			}
			if out[0] != byte(i) {
				return fmt.Errorf("round %d: bcast returned %d", i, out[0])
			}
			all, err := c.Allgather([]byte{byte(p.Rank() + i)})
			if err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if all[r][0] != byte(r+i) {
					return fmt.Errorf("round %d: allgather block %d = %d", i, r, all[r][0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
