package msglog

import (
	"sync"
	"testing"
	"testing/quick"
)

// nextSeq is the sequence number the next message to dest will carry, read
// off the snapshot a sender's checkpoint would take.
func nextSeq(l *Log, dest int) uint64 { return l.SeqSnapshot()[dest] }

// retained counts the entries the log holds, through Replay.
func retained(l *Log) int {
	n := 0
	for _, d := range l.Dests() {
		n += len(l.Replay(d, 0))
	}
	return n
}

func TestAppendAssignsSequentialSeqs(t *testing.T) {
	l := NewLog()
	e0 := l.Append(7, 1, 0, []byte("a"))
	e1 := l.Append(7, 1, 0, []byte("bb"))
	e2 := l.Append(9, 1, 0, []byte("c"))
	if e0.Seq != 0 || e1.Seq != 1 {
		t.Errorf("seqs to 7 = %d,%d, want 0,1", e0.Seq, e1.Seq)
	}
	if e2.Seq != 0 {
		t.Errorf("seq to 9 = %d, want 0 (independent channel)", e2.Seq)
	}
	if l.Bytes() != 4 {
		t.Errorf("Bytes = %d, want 4", l.Bytes())
	}
	if retained(l) != 3 {
		t.Errorf("retained = %d, want 3", retained(l))
	}
}

func TestAdvanceInterleavesWithAppend(t *testing.T) {
	// Intra-cluster messages advance the channel seq without logging.
	l := NewLog()
	if s := l.Advance(5); s != 0 {
		t.Errorf("Advance = %d, want 0", s)
	}
	e := l.Append(5, 0, 0, []byte("x"))
	if e.Seq != 1 {
		t.Errorf("Append after Advance seq = %d, want 1", e.Seq)
	}
	if nextSeq(l, 5) != 2 {
		t.Errorf("next seq = %d, want 2", nextSeq(l, 5))
	}
	if retained(l) != 1 {
		t.Errorf("retained = %d, want 1 (Advance must not log)", retained(l))
	}
}

func TestAppendCopiesPayload(t *testing.T) {
	l := NewLog()
	buf := []byte{1, 2}
	l.Append(1, 0, 0, buf)
	buf[0] = 99
	got := l.Replay(1, 0)
	if got[0].Payload[0] != 1 {
		t.Error("log aliased caller's buffer")
	}
}

func TestReplayFromSeq(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(2, 0, 0, []byte{byte(i)})
	}
	got := l.Replay(2, 3)
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Errorf("Replay(2,3) = %+v", got)
	}
	if got := l.Replay(4, 0); got != nil {
		t.Errorf("Replay of unknown dest = %+v", got)
	}
}

func TestTrimByEpoch(t *testing.T) {
	l := NewLog()
	l.Append(1, 0, 0, make([]byte, 10)) // epoch 0
	l.Append(1, 0, 1, make([]byte, 20)) // epoch 1
	l.Append(2, 0, 0, make([]byte, 30)) // epoch 0
	freed := l.Trim(1)
	if freed != 40 {
		t.Errorf("Trim freed %d, want 40", freed)
	}
	if l.Bytes() != 20 || retained(l) != 1 {
		t.Errorf("after trim: %d bytes, %d entries", l.Bytes(), retained(l))
	}
	if d := l.Dests(); len(d) != 1 || d[0] != 1 {
		t.Errorf("Dests after trim = %v", d)
	}
	// Trimming must not disturb sequence counters.
	if nextSeq(l, 1) != 2 || nextSeq(l, 2) != 1 {
		t.Errorf("seq counters after trim: %d, %d", nextSeq(l, 1), nextSeq(l, 2))
	}
}

func TestSeqSnapshotRestore(t *testing.T) {
	l := NewLog()
	l.Append(1, 0, 0, []byte("a"))
	l.Append(1, 0, 0, []byte("b"))
	l.Append(2, 0, 0, []byte("c"))
	snap := l.SeqSnapshot()
	l.Append(1, 0, 0, []byte("d"))
	l.RestoreSeq(snap)
	if nextSeq(l, 1) != 2 || nextSeq(l, 2) != 1 {
		t.Errorf("restored seqs = %d, %d", nextSeq(l, 1), nextSeq(l, 2))
	}
	// snapshot is a copy, not a view
	snap[9] = 42
	if nextSeq(l, 9) == 42 {
		t.Error("SeqSnapshot returned aliased map")
	}
}

func TestDedupAcceptRejectsDuplicates(t *testing.T) {
	d := NewDedup()
	ok, err := d.Accept(5, 0)
	if err != nil || !ok {
		t.Fatalf("first message: %v %v", ok, err)
	}
	ok, err = d.Accept(5, 1)
	if err != nil || !ok {
		t.Fatalf("second message: %v %v", ok, err)
	}
	ok, err = d.Accept(5, 0) // replayed duplicate
	if err != nil || ok {
		t.Fatalf("duplicate accepted: %v %v", ok, err)
	}
	if _, err = d.Accept(5, 7); err == nil {
		t.Error("sequence gap not detected")
	}
	if d.Cursor(5) != 2 {
		t.Errorf("Cursor = %d, want 2", d.Cursor(5))
	}
	// independent channels
	ok, err = d.Accept(6, 0)
	if err != nil || !ok {
		t.Errorf("other channel: %v %v", ok, err)
	}
}

func TestDedupSnapshotRestore(t *testing.T) {
	d := NewDedup()
	_, _ = d.Accept(1, 0)
	_, _ = d.Accept(1, 1)
	snap := d.Snapshot()
	_, _ = d.Accept(1, 2)
	d.Restore(snap)
	// After restore, seq 2 is new again (the rolled-back receiver will
	// legitimately re-receive it from replay).
	ok, err := d.Accept(1, 2)
	if err != nil || !ok {
		t.Errorf("post-restore accept: %v %v", ok, err)
	}
	snap[3] = 9
	if d.Cursor(3) == 9 {
		t.Error("Snapshot returned aliased map")
	}
}

func TestRecoveryHandshake(t *testing.T) {
	// End-to-end recovery semantics: receiver checkpoints its cursors,
	// keeps receiving, fails, restores, and replay from the sender's log
	// regenerates exactly the lost messages.
	sender := NewLog()
	recv := NewDedup()

	deliver := func(e Entry) bool {
		ok, err := recv.Accept(0, e.Seq)
		if err != nil {
			t.Fatalf("deliver: %v", err)
		}
		return ok
	}

	var delivered []byte
	// epoch 0: two messages, then a coordinated checkpoint
	for i := 0; i < 2; i++ {
		e := sender.Append(1, 0, 0, []byte{byte(i)})
		if deliver(e) {
			delivered = append(delivered, e.Payload[0])
		}
	}
	recvSnap := recv.Snapshot()
	senderSnap := sender.SeqSnapshot()
	_ = senderSnap

	// epoch 1: three more messages, then the receiver fails
	for i := 2; i < 5; i++ {
		e := sender.Append(1, 0, 1, []byte{byte(i)})
		if deliver(e) {
			delivered = append(delivered, e.Payload[0])
		}
	}

	// Failure: receiver rolls back to checkpoint.
	recv.Restore(recvSnap)
	rolledBack := delivered[:2]

	// Replay everything from the receiver's cursor.
	var replayed []byte
	for _, e := range sender.Replay(1, recv.Cursor(0)) {
		if deliver(e) {
			replayed = append(replayed, e.Payload[0])
		}
	}
	got := append(append([]byte{}, rolledBack...), replayed...)
	want := []byte{0, 1, 2, 3, 4}
	if string(got) != string(want) {
		t.Errorf("after recovery delivered %v, want %v", got, want)
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(dest int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(dest, 0, 0, []byte{1})
			}
		}(w)
	}
	wg.Wait()
	if retained(l) != 800 || l.Bytes() != 800 {
		t.Errorf("after concurrent appends: %d entries, %d bytes", retained(l), l.Bytes())
	}
	for d := 0; d < 8; d++ {
		if nextSeq(l, d) != 100 {
			t.Errorf("dest %d seq = %d, want 100", d, nextSeq(l, d))
		}
	}
}

// Property: for any interleaving of appends across destinations, Replay
// returns entries in strictly increasing seq order with no gaps from the
// requested cursor.
func TestReplayOrderProperty(t *testing.T) {
	f := func(destsRaw []uint8, from uint8) bool {
		l := NewLog()
		for _, d := range destsRaw {
			l.Append(int(d%4), 0, 0, []byte{d})
		}
		for d := 0; d < 4; d++ {
			cursor := uint64(from) % (nextSeq(l, d) + 1)
			entries := l.Replay(d, cursor)
			want := cursor
			for _, e := range entries {
				if e.Seq != want {
					return false
				}
				want++
			}
			if want != nextSeq(l, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
