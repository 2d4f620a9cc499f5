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
	"sort"
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
	if sharing < 1 {
		sharing = 1
	}
	if d.WriteBps <= 0 {
		return d.Latency
	}
	sec := float64(n) * float64(sharing) / d.WriteBps
	return d.Latency + time.Duration(sec*float64(time.Second))
}

// ReadTime returns the simulated time to read n bytes with contention.
func (d *Device) ReadTime(n int64, sharing int) time.Duration {
	if sharing < 1 {
		sharing = 1
	}
	if d.ReadBps <= 0 {
		return d.Latency
	}
	sec := float64(n) * float64(sharing) / d.ReadBps
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

// NotFoundError is returned when a key is absent.
type NotFoundError struct {
	Store string
	Key   string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("storage: %s: key %q not found", e.Store, e.Key)
}

// LocalStore is one node's local SSD: byte blobs keyed by string. A failed
// store loses all contents and rejects every operation until Repair.
type LocalStore struct {
	node   topology.NodeID
	dev    *Device
	mu     sync.Mutex
	data   map[string][]byte
	failed bool
}

// NewLocalStore creates the store for one node backed by dev.
func NewLocalStore(node topology.NodeID, dev *Device) *LocalStore {
	return &LocalStore{node: node, dev: dev, data: map[string][]byte{}}
}

// Node returns the owning node.
func (s *LocalStore) Node() topology.NodeID { return s.node }

// Put stores a copy of val under key and returns the simulated write time.
func (s *LocalStore) Put(key string, val []byte) (time.Duration, error) {
	return s.PutOwned(key, append([]byte(nil), val...))
}

// PutOwned stores val itself under key, without copying: the caller hands
// the buffer over and must neither write nor keep it afterwards.
func (s *LocalStore) PutOwned(key string, val []byte) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return 0, &FailedError{s.node}
	}
	s.data[key] = val
	return s.dev.WriteTime(int64(len(val)), 1), nil
}

// Get returns a copy of the blob under key and the simulated read time.
func (s *LocalStore) Get(key string) ([]byte, time.Duration, error) {
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
func (s *LocalStore) View(key string) ([]byte, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, 0, &FailedError{s.node}
	}
	v, ok := s.data[key]
	if !ok {
		return nil, 0, &NotFoundError{Store: fmt.Sprintf("node %d SSD", s.node), Key: key}
	}
	return v, s.dev.ReadTime(int64(len(v)), 1), nil
}

// Delete removes a key; deleting an absent key is a no-op.
func (s *LocalStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return &FailedError{s.node}
	}
	delete(s.data, key)
	return nil
}

// Keys returns the stored keys in sorted order.
func (s *LocalStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Fail simulates losing the node: contents are dropped and operations
// error until Repair.
func (s *LocalStore) Fail() {
	s.mu.Lock()
	s.failed = true
	s.data = map[string][]byte{}
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
	data map[string][]byte
}

// NewPFS creates a parallel file system backed by dev's aggregate bandwidth.
func NewPFS(dev *Device) *PFS {
	return &PFS{dev: dev, data: map[string][]byte{}}
}

// Put stores val under key; sharing is the number of concurrent writers
// contending for the aggregate bandwidth (e.g. all checkpointing nodes).
func (p *PFS) Put(key string, val []byte, sharing int) (time.Duration, error) {
	p.mu.Lock()
	p.data[key] = append([]byte(nil), val...)
	p.mu.Unlock()
	return p.dev.WriteTime(int64(len(val)), sharing), nil
}

// Get returns a copy of the blob under key.
func (p *PFS) Get(key string, sharing int) ([]byte, time.Duration, error) {
	p.mu.Lock()
	v, ok := p.data[key]
	if ok {
		v = append([]byte(nil), v...)
	}
	p.mu.Unlock()
	if !ok {
		return nil, 0, &NotFoundError{Store: "pfs", Key: key}
	}
	return v, p.dev.ReadTime(int64(len(v)), sharing), nil
}

// Delete removes a key; absent keys are a no-op.
func (p *PFS) Delete(key string) {
	p.mu.Lock()
	delete(p.data, key)
	p.mu.Unlock()
}

// Cluster bundles the per-node local stores and the shared PFS for a
// machine, with failure injection by node.
type Cluster struct {
	machine *topology.Machine
	local   []*LocalStore
	pfs     *PFS
}

// NewCluster builds stores for every node of m using its Table-I bandwidth
// constants.
func NewCluster(m *topology.Machine) *Cluster {
	ssd := &Device{Name: "ssd", ReadBps: m.SSDReadBps, WriteBps: m.SSDWriteBps}
	pfsDev := &Device{Name: "pfs", ReadBps: m.PFSReadBps, WriteBps: m.PFSWriteBps}
	c := &Cluster{machine: m, local: make([]*LocalStore, m.Nodes), pfs: NewPFS(pfsDev)}
	for n := range c.local {
		c.local[n] = NewLocalStore(topology.NodeID(n), ssd)
	}
	return c
}

// Local returns node n's SSD store.
func (c *Cluster) Local(n topology.NodeID) (*LocalStore, error) {
	if int(n) < 0 || int(n) >= len(c.local) {
		return nil, fmt.Errorf("storage: node %d out of range 0..%d", n, len(c.local)-1)
	}
	return c.local[n], nil
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
