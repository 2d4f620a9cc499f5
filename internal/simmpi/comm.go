package simmpi

import "fmt"

// Comm is a communicator: an ordered group of world ranks with its own rank
// numbering and an isolated tag space. Every Proc has one, spanning the
// world.
type Comm struct {
	proc  *Proc
	ctx   int64 // context id isolating this communicator's internal tags
	group []int // group[i] = world rank of communicator rank i
	rank  int   // this proc's rank within the communicator
	seq   int64 // per-proc collective sequence number (same at all ranks)
}

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) (int, error) {
	if r < 0 || r >= len(c.group) {
		return 0, fmt.Errorf("simmpi: rank %d out of communicator range 0..%d", r, len(c.group)-1)
	}
	return c.group[r], nil
}

// userTag embeds the communicator context into a user tag so identical tags
// on different communicators cannot match each other.
func (c *Comm) userTag(tag Tag) (Tag, error) {
	if tag < 0 {
		return 0, fmt.Errorf("simmpi: user tag %d must be non-negative", tag)
	}
	return Tag(c.ctx<<32) | (tag & 0xffffffff), nil
}

// itag builds an internal collective tag unique to (communicator, collective
// instance, round). All ranks of a communicator execute collectives in the
// same order, so seq agrees across ranks.
func (c *Comm) itag(seq int64, round int) Tag {
	return -(1 + Tag(c.ctx)<<40 + Tag(seq)<<12 + Tag(round))
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
