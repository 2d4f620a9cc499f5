// Package simmpi is the message-passing substrate standing in for MPI
// (MPICH2 in the paper). Ranks run as goroutines inside one process and
// exchange byte payloads through mailboxes with MPI-style (source, tag)
// matching. Point-to-point sends are eager and buffered — a send never
// blocks — which is the communication model the paper's protocols assume
// (sender-based logging requires the sender to retain payloads anyway).
//
// The collectives are the ones the traced application runs: a
// recursive-doubling allgather (the algorithm MPICH2 uses at these scales)
// and the linear gather and binomial-tree broadcast it falls back to when
// the size is not a power of two. They decompose into point-to-point
// traffic, so a Tracer observing sends reproduces exactly the patterns of
// the paper's Figure 5b, including the power-of-two allgather diagonals;
// AllgatherSchedule feeds a Tracer the same messages without running it.
package simmpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Tag distinguishes messages between the same (source, destination) pair.
// User code must use non-negative tags; negative tags are reserved for
// collectives.
type Tag int64

// ErrAborted is returned from communication calls after any rank in the
// world has failed: the world tears down rather than deadlocking.
var ErrAborted = errors.New("simmpi: world aborted")

// Tracer observes every point-to-point payload, including those generated
// internally by collectives. Implementations must be safe for concurrent
// use; src and dst are world ranks.
type Tracer interface {
	Record(src, dst int, bytes int)
}

// Options configures a World.
type Options struct {
	// Tracer, if non-nil, observes all sends.
	Tracer Tracer
}

// World owns the mailboxes of a set of ranks.
type World struct {
	size    int
	tracer  Tracer
	boxes   []*mailbox
	aborted atomic.Bool
}

type message struct {
	src  int
	tag  Tag
	data []byte
}

type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrAborted
	}
	mb.queue = append(mb.queue, m)
	mb.cond.Broadcast()
	return nil
}

// take blocks until a message with the given source and tag is available,
// then removes and returns it. Matching is FIFO per (src, tag) pair.
func (mb *mailbox) take(src int, tag Tag) ([]byte, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.queue {
			if m.src == src && m.tag == tag {
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return m.data, nil
			}
		}
		if mb.closed {
			return nil, ErrAborted
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// NewWorld creates a world of size ranks. Use Run to execute rank bodies, or
// Proc to drive ranks from externally managed goroutines.
func NewWorld(size int, opts Options) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("simmpi: world size %d must be positive", size)
	}
	w := &World{size: size, tracer: opts.Tracer, boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w, nil
}

// Abort marks the world failed and unblocks every pending receive with
// ErrAborted.
func (w *World) Abort() {
	if w.aborted.CompareAndSwap(false, true) {
		for _, b := range w.boxes {
			b.close()
		}
	}
}

// Proc returns the handle rank uses for communication. Each rank must be
// driven from a single goroutine.
func (w *World) Proc(rank int) (*Proc, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("simmpi: rank %d out of range 0..%d", rank, w.size-1)
	}
	p := &Proc{world: w, rank: rank}
	p.comm = &Comm{proc: p, rank: rank}
	return p, nil
}

// Run executes body once per rank, each in its own goroutine, and waits for
// all of them. The first non-nil error aborts the world (unblocking the
// others) and is returned.
func Run(size int, opts Options, body func(p *Proc) error) error {
	w, err := NewWorld(size, opts)
	if err != nil {
		return err
	}
	return w.Run(body)
}

// Run executes body once per rank of an existing world. See Run (package
// function) for semantics.
func (w *World) Run(body func(p *Proc) error) error {
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	for r := 0; r < w.size; r++ {
		p, err := w.Proc(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := body(p); err != nil {
				errOnce.Do(func() {
					firstErr = fmt.Errorf("simmpi: rank %d: %w", p.rank, err)
					w.Abort()
				})
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Proc is a rank's endpoint in a world.
type Proc struct {
	world *World
	rank  int
	comm  *Comm
}

// Rank returns the world rank.
func (p *Proc) Rank() int { return p.rank }

// World returns the communicator spanning all ranks.
func (p *Proc) Comm() *Comm { return p.comm }

// send delivers data to the world-rank dst with an internal or user tag.
// The payload is copied, making eager buffered semantics safe for callers
// that reuse buffers.
func (p *Proc) send(dst int, tag Tag, data []byte) error {
	if dst < 0 || dst >= p.world.size {
		return fmt.Errorf("simmpi: send to rank %d out of range 0..%d", dst, p.world.size-1)
	}
	if p.world.aborted.Load() {
		return ErrAborted
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	if err := p.world.boxes[dst].put(message{src: p.rank, tag: tag, data: buf}); err != nil {
		return err
	}
	if t := p.world.tracer; t != nil {
		t.Record(p.rank, dst, len(data))
	}
	return nil
}

// recv blocks for a message from world-rank src with the given tag.
func (p *Proc) recv(src int, tag Tag) ([]byte, error) {
	if src < 0 || src >= p.world.size {
		return nil, fmt.Errorf("simmpi: recv from rank %d out of range 0..%d", src, p.world.size-1)
	}
	return p.world.boxes[p.rank].take(src, tag)
}
