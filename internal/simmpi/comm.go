package simmpi

import "fmt"

// Comm is a communicator: the world's ranks in world order, with a tag space
// of its own for collectives. Every Proc has one, spanning the world.
type Comm struct {
	proc *Proc
	rank int   // this proc's rank within the communicator
	seq  int64 // per-proc collective sequence number (same at all ranks)
}

// size returns the number of ranks the communicator spans.
func (c *Comm) size() int { return c.proc.world.size }

// WorldRank translates a communicator rank to a world rank: the communicator
// spans the world in order, so this is a range check.
func (c *Comm) WorldRank(r int) (int, error) {
	if n := c.size(); r < 0 || r >= n {
		return 0, fmt.Errorf("simmpi: rank %d out of communicator range 0..%d", r, n-1)
	}
	return r, nil
}

// userTag checks a user tag and keeps its low 32 bits.
func (c *Comm) userTag(tag Tag) (Tag, error) {
	if tag < 0 {
		return 0, fmt.Errorf("simmpi: user tag %d must be non-negative", tag)
	}
	return tag & 0xffffffff, nil
}

// itag builds an internal collective tag unique to (collective instance,
// round). All ranks execute collectives in the same order, so seq agrees
// across ranks.
func (c *Comm) itag(seq int64, round int) Tag {
	return -(1 + Tag(seq)<<12 + Tag(round))
}

// Send delivers data to communicator rank dst with a non-negative tag.
// Sends are eager: the payload is copied and the call returns immediately.
func (c *Comm) Send(dst int, tag Tag, data []byte) error {
	wdst, err := c.WorldRank(dst)
	if err != nil {
		return err
	}
	t, err := c.userTag(tag)
	if err != nil {
		return err
	}
	return c.proc.send(wdst, t, data)
}

// Recv blocks until a message from communicator rank src with the given tag
// arrives and returns its payload.
func (c *Comm) Recv(src int, tag Tag) ([]byte, error) {
	wsrc, err := c.WorldRank(src)
	if err != nil {
		return nil, err
	}
	t, err := c.userTag(tag)
	if err != nil {
		return nil, err
	}
	return c.proc.recv(wsrc, t)
}

// Request represents a pending nonblocking operation.
type Request struct {
	done chan struct{}
	data []byte
	err  error
}

// Wait blocks until the operation completes, returning the received payload
// for receives (nil for sends).
func (r *Request) Wait() ([]byte, error) {
	<-r.done
	return r.data, r.err
}

// Irecv starts a nonblocking receive completed by Wait.
func (c *Comm) Irecv(src int, tag Tag) *Request {
	req := &Request{done: make(chan struct{})}
	go func() {
		req.data, req.err = c.Recv(src, tag)
		close(req.done)
	}()
	return req
}
