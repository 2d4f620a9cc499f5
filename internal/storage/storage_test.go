package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hierclust/internal/topology"
)

// newLocalStore builds one node's store outside a Cluster.
func newLocalStore(node topology.NodeID, dev *Device) *LocalStore {
	return &LocalStore{node: node, dev: dev, data: map[Key][]byte{}}
}

func TestDeviceTimes(t *testing.T) {
	d := &Device{Name: "ssd", ReadBps: 500e6, WriteBps: 360e6, Latency: time.Millisecond}
	// 360 MB at 360 MB/s = 1 s + latency
	if got := d.WriteTime(360e6, 1); got != time.Second+time.Millisecond {
		t.Errorf("WriteTime = %v, want 1.001s", got)
	}
	// contention doubles time
	if got := d.WriteTime(360e6, 2); got != 2*time.Second+time.Millisecond {
		t.Errorf("contended WriteTime = %v, want 2.001s", got)
	}
	if got := d.ReadTime(500e6, 1); got != time.Second+time.Millisecond {
		t.Errorf("ReadTime = %v, want 1.001s", got)
	}
	// sharing < 1 clamps
	if got := d.WriteTime(360e6, 0); got != time.Second+time.Millisecond {
		t.Errorf("WriteTime sharing=0 = %v", got)
	}
	zero := &Device{Name: "z", Latency: time.Millisecond}
	if got := zero.WriteTime(100, 1); got != time.Millisecond {
		t.Errorf("zero-bandwidth WriteTime = %v, want latency only", got)
	}
	if got := zero.ReadTime(100, 1); got != time.Millisecond {
		t.Errorf("zero-bandwidth ReadTime = %v, want latency only", got)
	}
}

func TestLocalStorePutGetDelete(t *testing.T) {
	s := newLocalStore(3, &Device{Name: "ssd", ReadBps: 1e9, WriteBps: 1e9})
	if _, err := s.Put(NewKey("a"), []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Get(NewKey("a"))
	if err != nil || len(v) != 2 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	// stored value is a copy
	v[0] = 99
	v2, _, _ := s.Get(NewKey("a"))
	if v2[0] != 1 {
		t.Error("Get returned aliased storage")
	}
	var nf *NotFoundError
	if _, _, err := s.Get(NewKey("missing", 1, 2)); !errors.As(err, &nf) || err.Error() != `storage: node 3 SSD: key "missing/1/2" not found` {
		t.Errorf("Get(missing) err = %v, want NotFoundError", err)
	}
	if err := s.Delete(NewKey("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(NewKey("a")); err == nil {
		t.Error("Get after Delete succeeded")
	}
	if err := s.Delete(NewKey("never-existed")); err != nil {
		t.Errorf("Delete of absent key: %v", err)
	}
}

func TestLocalStorePutCopies(t *testing.T) {
	s := newLocalStore(0, &Device{Name: "ssd", ReadBps: 1, WriteBps: 1})
	buf := []byte{7}
	_, _ = s.Put(NewKey("k"), buf)
	buf[0] = 8
	v, _, _ := s.Get(NewKey("k"))
	if v[0] != 7 {
		t.Error("Put aliased the caller's buffer")
	}
}

// TestLocalStoreOwnedAndView pins the zero-copy pair: PutOwned keeps the
// caller's buffer, View hands out the stored one, and a view outlives an
// overwrite or a node failure because stored blobs are never written.
func TestLocalStoreOwnedAndView(t *testing.T) {
	s := newLocalStore(3, &Device{Name: "ssd", ReadBps: 1e6, WriteBps: 1e6})
	buf := []byte{1, 2, 3}
	if d, err := s.PutOwned(NewKey("k"), buf); err != nil || d <= 0 {
		t.Fatalf("PutOwned = %v, %v", d, err)
	}
	v, d, err := s.View(NewKey("k"))
	if err != nil || d <= 0 {
		t.Fatalf("View = %v, %v", d, err)
	}
	if &v[0] != &buf[0] {
		t.Error("PutOwned or View copied the buffer")
	}
	if g, _, _ := s.Get(NewKey("k")); &g[0] == &buf[0] {
		t.Error("Get returned the stored buffer")
	}
	_, _ = s.Put(NewKey("k"), []byte{9, 9, 9})
	s.Fail()
	if !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("view changed under overwrite and failure: %v", v)
	}
	var fe *FailedError
	if _, _, err := s.View(NewKey("k")); !errors.As(err, &fe) {
		t.Errorf("View on failed store err = %v", err)
	}
	if _, err := s.PutOwned(NewKey("k"), buf); !errors.As(err, &fe) {
		t.Errorf("PutOwned on failed store err = %v", err)
	}
	s.Repair()
	var nf *NotFoundError
	if _, _, err := s.View(NewKey("k")); !errors.As(err, &nf) {
		t.Errorf("View(missing) err = %v, want NotFoundError", err)
	}
}

func TestLocalStoreFailRepair(t *testing.T) {
	s := newLocalStore(1, &Device{Name: "ssd", ReadBps: 1e9, WriteBps: 1e9})
	_, _ = s.Put(NewKey("ckpt"), make([]byte, 10))
	s.Fail()
	var fe *FailedError
	if _, err := s.Put(NewKey("x"), nil); !errors.As(err, &fe) || fe.Node != 1 {
		t.Errorf("Put on failed store err = %v", err)
	}
	if _, _, err := s.Get(NewKey("ckpt")); !errors.As(err, &fe) {
		t.Errorf("Get on failed store err = %v", err)
	}
	if err := s.Delete(NewKey("ckpt")); !errors.As(err, &fe) {
		t.Errorf("Delete on failed store err = %v", err)
	}
	s.Repair()
	if _, err := s.Put(NewKey("y"), nil); err != nil {
		t.Errorf("Put after Repair err = %v", err)
	}
	// data was lost
	if _, _, err := s.Get(NewKey("ckpt")); err == nil {
		t.Error("data survived Fail/Repair")
	}
}

func TestKeysSorted(t *testing.T) {
	s := newLocalStore(0, &Device{Name: "ssd", ReadBps: 1, WriteBps: 1})
	_, _ = s.Put(NewKey("b"), nil)
	_, _ = s.Put(NewKey("a"), nil)
	_, _ = s.Put(NewKey("c"), nil)
	k := s.Keys()
	if len(k) != 3 || k[0].Tag != "a" || k[2].Tag != "c" {
		t.Errorf("Keys = %v", k)
	}
}

func TestPFS(t *testing.T) {
	p := &PFS{dev: &Device{Name: "lustre", ReadBps: 10e3, WriteBps: 10e3}, data: map[Key][]byte{}}
	dur, err := p.Put(NewKey("k"), make([]byte, 1e3), 10)
	if err != nil {
		t.Fatal(err)
	}
	// 1 KB * 10 writers / 10 KB/s = 1s of simulated time
	if dur != time.Second {
		t.Errorf("contended PFS write = %v, want 1s", dur)
	}
	v, _, err := p.Get(NewKey("k"), 1)
	if err != nil || len(v) != 1e3 {
		t.Fatalf("Get: %d bytes, %v", len(v), err)
	}
	var nf *NotFoundError
	if _, _, err := p.Get(NewKey("nope"), 1); !errors.As(err, &nf) || err.Error() != `storage: pfs: key "nope" not found` {
		t.Errorf("Get of absent key err = %v", err)
	}
	p.Delete(NewKey("k"))
	if _, _, err := p.Get(NewKey("k"), 1); err == nil {
		t.Error("Get after Delete succeeded")
	}
}

func TestCluster(t *testing.T) {
	m := &topology.Machine{Name: "t", Nodes: 4, SSDWriteBps: 360e6, SSDReadBps: 500e6, PFSWriteBps: 10e9, PFSReadBps: 10e9}
	c := NewCluster(m)
	s, err := c.Local(2)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = s.Put(NewKey("x"), []byte{1})
	if _, err := c.Local(9); err == nil {
		t.Error("Local accepted out-of-range node")
	}
	if err := c.FailNode(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(NewKey("y"), nil); err == nil {
		t.Error("Put succeeded on a failed node's store")
	}
	if err := c.FailNode(9); err == nil {
		t.Error("FailNode accepted out-of-range node")
	}
	if err := c.RepairNode(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(NewKey("y"), nil); err != nil {
		t.Errorf("Put after RepairNode err = %v", err)
	}
	if err := c.RepairNode(-1); err == nil {
		t.Error("RepairNode accepted out-of-range node")
	}
	if c.PFS() == nil {
		t.Error("PFS is nil")
	}
}
