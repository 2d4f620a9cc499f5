package serve

import (
	"context"
	"sync"
)

// admission is the outcome of limiter.acquire.
type admission int

const (
	// admitted: a slot is held; the caller must invoke the release func.
	admitted admission = iota
	// admissionShed: the wait queue is full — load-shed with 429.
	admissionShed
	// admissionDraining: the server is shutting down — reject with 503.
	admissionDraining
	// admissionCancelled: the request context ended while queued.
	admissionCancelled
)

// limiter is the admission controller for expensive evaluations: at most
// maxConcurrent pipeline runs execute at once, at most maxQueue more wait
// for a slot, and everything beyond that is shed immediately — queueing
// unboundedly under overload would trade a fast 429 (which a client can
// back off from) for unbounded latency on every request (which it cannot).
// This is the load-shedding / graceful-degradation shape of the HPC
// resilience pattern literature applied to the evaluation service itself.
//
// Two refinements keep the pool fair:
//
//   - Per-client share cap. Slots are accounted per client key (the
//     X-Hierclust-Client header, falling back to the remote address), and
//     one client never holds more than clientCap slots at once. A client
//     at its cap queues even while slots sit free, and a freed slot is
//     handed to the first *eligible* waiter, not blindly to the head of
//     the queue — so an aggressive batch client cannot starve everyone
//     else's interactive traffic.
//
//   - Background tier. Sweep-job cells acquire with background=true: they
//     are exempt from the queue bound (a sweep's own concurrency is
//     already bounded, and shedding its cells would only force a retry
//     loop) but are granted slots only when no eligible interactive
//     waiter exists. Interactive requests always cut ahead of sweeps.
//
// Cache hits never pass through the limiter: serving bytes from the result
// LRU is as cheap as the 429 would be.
type limiter struct {
	maxConc   int
	clientCap int
	maxQueue  int

	mu        sync.Mutex
	runningN  int
	held      map[string]int // client key -> held slots
	waiters   []*slotWaiter  // interactive FIFO
	bgWaiters []*slotWaiter  // background FIFO, granted after interactive

	draining <-chan struct{} // closed once the server drains
}

// slotWaiter is one queued acquire. A grant transfers the slot to the
// waiter under the limiter lock and closes ready; if the waiter gave up in
// the same instant (context cancelled, drain), it returns the slot.
type slotWaiter struct {
	client  string
	ready   chan struct{}
	granted bool
}

// newLimiter builds a limiter that stops admitting once draining is
// closed: queued waiters are released with admissionDraining, later
// acquires fail fast, and running evaluations finish normally. clientCap
// <= 0 picks maxConcurrent-1 (so a single client always leaves one slot for
// everyone else), floored at 1.
func newLimiter(maxConcurrent, maxQueue, clientCap int, draining <-chan struct{}) *limiter {
	if clientCap <= 0 {
		clientCap = maxConcurrent - 1
	}
	if clientCap < 1 {
		clientCap = 1
	}
	if clientCap > maxConcurrent {
		clientCap = maxConcurrent
	}
	return &limiter{
		maxConc:   maxConcurrent,
		clientCap: clientCap,
		maxQueue:  maxQueue,
		held:      map[string]int{},
		draining:  draining,
	}
}

// acquire claims an execution slot for client, queueing until one is
// available (bounded by maxQueue unless background). On admitted, release
// must be called exactly once; on any other outcome release is nil.
func (l *limiter) acquire(ctx context.Context, client string, background bool) (admission, func()) {
	select {
	case <-l.draining:
		return admissionDraining, nil
	default:
	}

	l.mu.Lock()
	if l.runningN < l.maxConc && l.held[client] < l.clientCap {
		l.runningN++
		l.held[client]++
		l.mu.Unlock()
		return admitted, func() { l.release(client) }
	}
	if !background && len(l.waiters) >= l.maxQueue {
		l.mu.Unlock()
		return admissionShed, nil
	}
	w := &slotWaiter{client: client, ready: make(chan struct{})}
	if background {
		l.bgWaiters = append(l.bgWaiters, w)
	} else {
		l.waiters = append(l.waiters, w)
	}
	l.mu.Unlock()

	select {
	case <-w.ready:
		return admitted, func() { l.release(client) }
	case <-ctx.Done():
		if l.abandon(w, background) {
			return admitted, func() { l.release(client) }
		}
		return admissionCancelled, nil
	case <-l.draining:
		if l.abandon(w, background) {
			return admitted, func() { l.release(client) }
		}
		return admissionDraining, nil
	}
}

// abandon removes a waiter that stopped waiting. It reports true when the
// waiter was granted a slot in the same instant — the select raced — in
// which case the caller owns the slot after all.
func (l *limiter) abandon(w *slotWaiter, background bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.granted {
		return true
	}
	q := &l.waiters
	if background {
		q = &l.bgWaiters
	}
	for i, cand := range *q {
		if cand == w {
			*q = append((*q)[:i], (*q)[i+1:]...)
			break
		}
	}
	return false
}

// release frees client's slot and hands it to the first eligible waiter:
// interactive before background, skipping waiters whose client is at its
// cap. The hand-off happens under the lock, so the slot never transits
// through a state where a newcomer could barge past the queue.
func (l *limiter) release(client string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runningN--
	if l.held[client] > 1 {
		l.held[client]--
	} else {
		delete(l.held, client)
	}
	l.grantLocked()
}

func (l *limiter) grantLocked() {
	if l.runningN >= l.maxConc {
		return
	}
	for _, q := range []*[]*slotWaiter{&l.waiters, &l.bgWaiters} {
		for i, w := range *q {
			if l.held[w.client] >= l.clientCap {
				continue
			}
			*q = append((*q)[:i], (*q)[i+1:]...)
			l.runningN++
			l.held[w.client]++
			w.granted = true
			close(w.ready)
			return
		}
	}
}

// queued returns the current number of interactive waiters.
func (l *limiter) queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiters)
}

// queuedBackground returns the current number of background (sweep-cell)
// waiters.
func (l *limiter) queuedBackground() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.bgWaiters)
}

// running returns the number of held execution slots.
func (l *limiter) running() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runningN
}

// capacity returns the execution-slot count.
func (l *limiter) capacity() int { return l.maxConc }
