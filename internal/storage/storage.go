// Package storage simulates the storage hierarchy the paper's checkpointing
// stack writes to: node-local SSDs (fast, but lost with their node) and a
// shared parallel file system (slow, reliable, bandwidth-contended). Data
// is held in memory; devices additionally report the *simulated* transfer
// time that the same operation would take on the modeled hardware
// (TSUBAME2's 360 MB/s SSDs and 10 GB/s Lustre), so experiments can compare
// checkpoint costs at paper scale without the hardware.
package storage

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hierclust/internal/topology"
)

// Device models a storage device's performance envelope.
type Device struct {
	// Name labels the device in errors and reports.
	Name string
	// ReadBps and WriteBps are sustained bandwidths in bytes/second.
	ReadBps, WriteBps float64
	// Latency is the fixed per-operation setup cost.
	Latency time.Duration
}

// WriteTime returns the simulated time to write n bytes with `sharing`
// concurrent writers contending for the device (sharing <= 1 means
// exclusive access).
func (d *Device) WriteTime(n int64, sharing int) time.Duration {
	return d.transfer(n, sharing, d.WriteBps)
}

// ReadTime returns the simulated time to read n bytes with contention.
func (d *Device) ReadTime(n int64, sharing int) time.Duration {
	return d.transfer(n, sharing, d.ReadBps)
}

func (d *Device) transfer(n int64, sharing int, bps float64) time.Duration {
	if bps <= 0 {
		return d.Latency
	}
	sec := float64(n) * float64(max(sharing, 1)) / bps
	return d.Latency + time.Duration(sec*float64(time.Second))
}

// FailedError is returned by operations on a store whose node has failed;
// match it with errors.As.
type FailedError struct {
	Node topology.NodeID
}

func (e *FailedError) Error() string {
	return fmt.Sprintf("storage: node %d storage failed", e.Node)
}

// Key names a stored blob: a constant tag saying what the blob is, and up
// to three integer ids. It is a comparable value, so building a key and
// looking one up allocate nothing; String renders "tag/id/id[/id]".
type Key struct {
	Tag string
	ID  [3]int
	n   uint8 // ids in use
}

// NewKey returns the key tag/ids[0]/…; ids past the third are dropped.
func NewKey(tag string, ids ...int) Key {
	k := Key{Tag: tag}
	k.n = uint8(copy(k.ID[:], ids))
	return k
}

func (k Key) String() string {
	b := []byte(k.Tag)
	for _, id := range k.ID[:k.n] {
		b = strconv.AppendInt(append(b, '/'), int64(id), 10)
	}
	return string(b)
}

// NotFoundError is returned when a key is absent from node Node's SSD, or,
// when Node is -1, from the parallel file system. It is formatted only
// when Error is called.
type NotFoundError struct {
	Node topology.NodeID
	Key  Key
}

func (e *NotFoundError) Error() string {
	if e.Node < 0 {
		return fmt.Sprintf("storage: pfs: key %q not found", e.Key)
	}
	return fmt.Sprintf("storage: node %d SSD: key %q not found", e.Node, e.Key)
}

// LocalStore is one node's local SSD: byte blobs keyed by Key. A failed
// store loses all contents and rejects every operation until Repair.
type LocalStore struct {
	node   topology.NodeID
	dev    *Device
	mu     sync.Mutex
	data   map[Key][]byte
	failed bool
}

// Put stores a copy of val under key and returns the simulated write time.
func (s *LocalStore) Put(key Key, val []byte) (time.Duration, error) {
	return s.PutOwned(key, append([]byte(nil), val...))
}

// PutOwned stores val itself under key, without copying: the caller hands
// the buffer over and must neither write nor keep it afterwards. val may be
// a cap-clipped part of a larger buffer (a slab); the whole buffer then
// stays allocated until no store holds any part of it.
func (s *LocalStore) PutOwned(key Key, val []byte) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return 0, &FailedError{s.node}
	}
	s.data[key] = val
	return s.dev.WriteTime(int64(len(val)), 1), nil
}

// Get returns a copy of the blob under key and the simulated read time.
func (s *LocalStore) Get(key Key) ([]byte, time.Duration, error) {
	v, d, err := s.View(key)
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), v...), d, nil
}

// View returns the stored blob itself, without copying, and the simulated
// read time. The view is borrowed: the caller must never write it, keep it
// past the operation that took it, or return it to its own callers. Stored
// blobs are replaced, never modified in place, so a view stays intact even
// if its key is overwritten or its node fails meanwhile.
func (s *LocalStore) View(key Key) ([]byte, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, 0, &FailedError{s.node}
	}
	v, ok := s.data[key]
	if !ok {
		return nil, 0, &NotFoundError{Node: s.node, Key: key}
	}
	return v, s.dev.ReadTime(int64(len(v)), 1), nil
}

// Delete removes a key; deleting an absent key is a no-op.
func (s *LocalStore) Delete(key Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return &FailedError{s.node}
	}
	delete(s.data, key)
	return nil
}

// Keys returns the stored keys, ordered by their rendered form.
func (s *LocalStore) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b Key) int { return strings.Compare(a.String(), b.String()) })
	return out
}

// Fail simulates losing the node: contents are dropped and operations
// error until Repair.
func (s *LocalStore) Fail() {
	s.mu.Lock()
	s.failed = true
	s.data = map[Key][]byte{}
	s.mu.Unlock()
}

// Repair brings a failed store back empty (a replacement node).
func (s *LocalStore) Repair() {
	s.mu.Lock()
	s.failed = false
	s.mu.Unlock()
}

// PFS is the shared parallel file system: reliable, but all writers share
// its aggregate bandwidth, which is what makes PFS-only checkpointing
// uncompetitive at scale (§II-A of the paper).
type PFS struct {
	dev  *Device
	mu   sync.Mutex
	data map[Key][]byte
}

// Put stores val under key; sharing is the number of concurrent writers
// contending for the aggregate bandwidth (e.g. all checkpointing nodes).
func (p *PFS) Put(key Key, val []byte, sharing int) (time.Duration, error) {
	p.mu.Lock()
	p.data[key] = append([]byte(nil), val...)
	p.mu.Unlock()
	return p.dev.WriteTime(int64(len(val)), sharing), nil
}

// Get returns a copy of the blob under key.
func (p *PFS) Get(key Key, sharing int) ([]byte, time.Duration, error) {
	p.mu.Lock()
	v, ok := p.data[key]
	if ok {
		v = append([]byte(nil), v...)
	}
	p.mu.Unlock()
	if !ok {
		return nil, 0, &NotFoundError{Node: -1, Key: key}
	}
	return v, p.dev.ReadTime(int64(len(v)), sharing), nil
}

// Delete removes a key; absent keys are a no-op.
func (p *PFS) Delete(key Key) {
	p.mu.Lock()
	delete(p.data, key)
	p.mu.Unlock()
}

// Cluster bundles the per-node local stores and the shared PFS for a
// machine, with failure injection by node.
type Cluster struct {
	local []LocalStore
	pfs   *PFS
}

// NewCluster builds stores for every node of m using its Table-I bandwidth
// constants.
func NewCluster(m *topology.Machine) *Cluster {
	ssd := &Device{Name: "ssd", ReadBps: m.SSDReadBps, WriteBps: m.SSDWriteBps}
	pfsDev := &Device{Name: "pfs", ReadBps: m.PFSReadBps, WriteBps: m.PFSWriteBps}
	c := &Cluster{local: make([]LocalStore, m.Nodes), pfs: &PFS{dev: pfsDev, data: map[Key][]byte{}}}
	for n := range c.local {
		c.local[n] = LocalStore{node: topology.NodeID(n), dev: ssd, data: map[Key][]byte{}}
	}
	return c
}

// Local returns node n's SSD store.
func (c *Cluster) Local(n topology.NodeID) (*LocalStore, error) {
	if int(n) < 0 || int(n) >= len(c.local) {
		return nil, fmt.Errorf("storage: node %d out of range 0..%d", n, len(c.local)-1)
	}
	return &c.local[n], nil
}

// PFS returns the shared file system.
func (c *Cluster) PFS() *PFS { return c.pfs }

// FailNode simulates node n crashing: its local storage is lost.
func (c *Cluster) FailNode(n topology.NodeID) error {
	s, err := c.Local(n)
	if err != nil {
		return err
	}
	s.Fail()
	return nil
}

// RepairNode restores node n with empty storage.
func (c *Cluster) RepairNode(n topology.NodeID) error {
	s, err := c.Local(n)
	if err != nil {
		return err
	}
	s.Repair()
	return nil
}
