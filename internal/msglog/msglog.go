// Package msglog implements sender-based message logging (Johnson &
// Zwaenepoel, reference [14] of the paper), the ingredient hybrid
// checkpointing protocols use for inter-cluster messages. Each sender keeps
// the payload of every logged message in memory, stamped with a per-channel
// sequence number and the sender's checkpoint epoch. After a failure the
// surviving senders replay their logged payloads to the restarted cluster;
// receivers use sequence numbers to discard duplicates of messages they
// already delivered.
//
// The memory footprint of these logs is the paper's fourth optimization
// dimension: clusterings that log more than ~20% of traffic exhaust log
// memory between checkpoints.
package msglog

import (
	"fmt"
	"sort"
	"sync"
)

// Entry is one logged message.
type Entry struct {
	// Dest is the receiver's world rank.
	Dest int
	// Tag is the application tag the message was sent with.
	Tag int64
	// Seq is the per-(sender,dest) channel sequence number, starting at 0.
	Seq uint64
	// Epoch is the sender's checkpoint epoch at send time. Entries from
	// epochs at or before a stable checkpoint line are discardable.
	Epoch int
	// Payload is the message body (owned by the log).
	Payload []byte
}

// Log is one sender's message log. It is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	byDest  map[int][]Entry
	nextSeq map[int]uint64
	bytes   int64
}

// NewLog creates one sender rank's log.
func NewLog() *Log {
	return &Log{byDest: map[int][]Entry{}, nextSeq: map[int]uint64{}}
}

// Advance consumes the next sequence number for dest without retaining a
// payload — used for intra-cluster messages, which need sequencing but not
// logging.
func (l *Log) Advance(dest int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.nextSeq[dest]
	l.nextSeq[dest] = s + 1
	return s
}

// Append logs a message payload to dest and returns the entry (with its
// assigned sequence number). The payload is copied.
//
// If an entry with the assigned sequence number is already retained — a
// rolled-back sender deterministically re-sending a message it logged
// before the failure — the existing entry is returned unchanged rather
// than duplicated (send-determinism guarantees equal payloads).
func (l *Log) Append(dest int, tag int64, epoch int, payload []byte) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.nextSeq[dest]
	l.nextSeq[dest] = s + 1
	for i := len(l.byDest[dest]) - 1; i >= 0; i-- {
		if e := l.byDest[dest][i]; e.Seq == s {
			return e
		}
	}
	e := Entry{Dest: dest, Tag: tag, Seq: s, Epoch: epoch, Payload: append([]byte(nil), payload...)}
	l.byDest[dest] = append(l.byDest[dest], e)
	l.bytes += int64(len(payload))
	return e
}

// Bytes returns the total logged payload bytes currently held.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Trim discards entries whose epoch is strictly below minEpoch: once every
// rank of the receiving cluster has a stable checkpoint of epoch E, messages
// sent in epochs < E can never be replayed and are freed. Returns the bytes
// freed.
func (l *Log) Trim(minEpoch int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var freed int64
	for dest, entries := range l.byDest {
		kept := entries[:0]
		for _, e := range entries {
			if e.Epoch >= minEpoch {
				kept = append(kept, e)
			} else {
				freed += int64(len(e.Payload))
			}
		}
		if len(kept) == 0 {
			delete(l.byDest, dest)
		} else {
			l.byDest[dest] = append([]Entry(nil), kept...)
		}
	}
	l.bytes -= freed
	return freed
}

// Replay returns the retained entries destined to dest with Seq >= fromSeq,
// in sequence order — the messages a restarted receiver must be re-fed.
func (l *Log) Replay(dest int, fromSeq uint64) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Entry
	for _, e := range l.byDest[dest] {
		if e.Seq >= fromSeq {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dests returns the destinations with retained entries, ascending.
func (l *Log) Dests() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]int, 0, len(l.byDest))
	for d := range l.byDest {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// SeqSnapshot returns a copy of all outgoing sequence counters, for
// inclusion in the sender's checkpoint.
func (l *Log) SeqSnapshot() map[int]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int]uint64, len(l.nextSeq))
	for d, s := range l.nextSeq {
		out[d] = s
	}
	return out
}

// RestoreSeq replaces the outgoing counters with a checkpoint snapshot.
func (l *Log) RestoreSeq(snap map[int]uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq = make(map[int]uint64, len(snap))
	for d, s := range snap {
		l.nextSeq[d] = s
	}
}

// Dedup tracks, per incoming channel, the next expected sequence number and
// rejects replays of already-delivered messages. One Dedup lives at each
// receiver.
type Dedup struct {
	mu   sync.Mutex
	next map[int]uint64
}

// NewDedup returns an empty receiver-side duplicate filter.
func NewDedup() *Dedup {
	return &Dedup{next: map[int]uint64{}}
}

// Accept reports whether the message (src, seq) is new, advancing the
// channel cursor when it is. Channels are FIFO, so seq values arrive in
// order; a replayed duplicate carries a seq below the cursor.
func (d *Dedup) Accept(src int, seq uint64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	next := d.next[src]
	switch {
	case seq == next:
		d.next[src] = next + 1
		return true, nil
	case seq < next:
		return false, nil // duplicate from replay
	default:
		return false, fmt.Errorf("msglog: sequence gap from %d: got %d, expected %d", src, seq, next)
	}
}

// Snapshot returns the channel cursors for inclusion in a checkpoint.
func (d *Dedup) Snapshot() map[int]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int]uint64, len(d.next))
	for s, v := range d.next {
		out[s] = v
	}
	return out
}

// Restore replaces the cursors with a checkpoint snapshot.
func (d *Dedup) Restore(snap map[int]uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.next = make(map[int]uint64, len(snap))
	for s, v := range snap {
		d.next[s] = v
	}
}

// Cursor returns the next expected sequence number from src.
func (d *Dedup) Cursor(src int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next[src]
}
