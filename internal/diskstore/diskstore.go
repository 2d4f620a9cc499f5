// Package diskstore is the shared hardened disk persistence layer behind
// hierclust's durable result cache and the hcserve sweep journal, so
// every on-disk subsystem keeps the same degrade-don't-fail guarantees:
//
//   - Atomic writes: every file lands via temp file + rename, so a crash
//     mid-write never leaves a half-written blob under its real name.
//   - Retried transient IO: each disk operation gets capped-backoff
//     retries, with every failed attempt counted (Stats.ReadErrors /
//     WriteErrors) so metrics move before users notice.
//   - Quarantine, not delete: corrupt files are renamed to <name>.bad —
//     the bytes are the only evidence of how they got corrupted.
//   - Degraded mode: after OpAttempts consecutive failed attempts (one
//     retried-out operation) the store stops touching the disk — every Get
//     misses and every Put is dropped, so the cache above it or a
//     recompute answers — and lets one write through per ProbeEvery until
//     one succeeds.
//   - Checksum framing: payloads are wrapped in a magic + CRC32 header so
//     corruption is detected at read time without the caller having to
//     parse anything.
//
// The index is one lru.Cache weighted by blob size, whose eviction hook
// deletes the evicted file.
//
// Record files (records.go) reuse the checksum frame and the quarantine
// extension for a directory of one durably written file per record — what
// the hcserve sweep journal keeps per unfinished job — without the Store's
// byte budget, retries or degraded mode.
package diskstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/internal/lru"
)

const (
	// QuarantineExt is appended to a corrupt file's full name, preserving
	// the original extension (doc.hcres -> doc.hcres.bad).
	QuarantineExt = ".bad"

	// OpAttempts is how many times a transiently failing disk operation is
	// tried before the store gives up on it.
	OpAttempts = 3

	retryBackoff    = 2 * time.Millisecond
	retryBackoffMax = 8 * time.Millisecond

	// ProbeEvery is how often a degraded store lets one write through to
	// test whether the disk recovered.
	ProbeEvery = 30 * time.Second

	// Ext is the filename extension of stored blobs; files without it are
	// ignored by the restart re-index.
	Ext = ".hcres"

	// The store's fault-injection points fire at the top of each read
	// attempt, write attempt and rename.
	faultRead   = "resultcache.disk.read"
	faultWrite  = "resultcache.disk.write"
	faultRename = "resultcache.disk.rename"
)

// blobMagic opens every checksum-framed blob: "HCDS" + format version 1.
var blobMagic = [5]byte{'H', 'C', 'D', 'S', '1'}

// blobHeaderLen is magic (5) + crc32 (4) + payload length (4).
const blobHeaderLen = len(blobMagic) + 8

// Stats is the store's observability surface.
type Stats struct {
	// Entries and Bytes describe the on-disk index.
	Entries int
	Bytes   int64
	// ReadErrors and WriteErrors count failed disk operation *attempts*
	// (each retry of a transiently failing op counts).
	ReadErrors, WriteErrors int64
	// Quarantined counts corrupt files renamed to .bad.
	Quarantined int64
	// Degraded reports that the store is skipping the disk.
	Degraded bool
}

// Store is a size-bounded directory of blobs keyed by filename stem, with
// the retry/quarantine/degrade hardening described in the package comment.
// All methods are safe for concurrent use.
type Store struct {
	dir   string
	index *lru.Cache[struct{}] // stem -> blob, weighted by file size

	// degradeAfter (OpAttempts) and probeEvery (ProbeEvery) are fields
	// only so this package's tests can shorten the drill.
	degradeAfter int
	probeEvery   time.Duration
	consecFails  atomic.Int32
	degraded     atomic.Bool
	degradedAt   atomic.Int64 // unix nanos; advanced when a probe is claimed
	readErrs     atomic.Int64
	writeErrs    atomic.Int64
	quarantined  atomic.Int64
}

// Open opens (creating if needed) a store rooted at dir, bounded to maxBytes
// of stored blobs: least-recently-used blobs are evicted past it, except the
// newest. Existing blobs are re-indexed oldest-first by modification time —
// the restart-survival path — and evicted down to the byte budget;
// quarantined .bad files and foreign extensions are ignored.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("diskstore: maxBytes must be positive")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{dir: dir, degradeAfter: OpAttempts, probeEvery: ProbeEvery}
	s.index = lru.New(maxBytes, func(stem string, _ struct{}) { _ = os.Remove(s.path(stem)) })

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	type found struct {
		stem  string
		size  int64
		mtime int64
	}
	var olds []found
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != Ext {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		olds = append(olds, found{stem: name[:len(name)-len(Ext)], size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(olds, func(i, j int) bool { return olds[i].mtime < olds[j].mtime })
	for _, f := range olds {
		s.index.Put(f.stem, struct{}{}, f.size)
	}
	return s, nil
}

func (s *Store) path(stem string) string {
	return filepath.Join(s.dir, stem+Ext)
}

// permanentErr marks a failure retrying cannot fix — the bytes are wrong,
// not the IO. retry returns it immediately, uncharged.
type permanentErr struct{ error }

func (e permanentErr) Unwrap() error { return e.error }

func isPermanent(err error) bool {
	if _, ok := err.(permanentErr); ok {
		return true
	}
	return os.IsNotExist(err)
}

// retry runs op with capped-backoff retries, charging every failed
// transient attempt to errs and to the consecutive-failure degradation
// trigger. Permanent failures return immediately, uncharged.
func (s *Store) retry(errs *atomic.Int64, op func() error) error {
	backoff := retryBackoff
	var err error
	for attempt := 0; attempt < OpAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < retryBackoffMax {
				backoff *= 2
			}
		}
		err = op()
		if err == nil {
			return nil
		}
		if isPermanent(err) {
			return err
		}
		errs.Add(1)
		s.noteFailure()
	}
	return err
}

// noteFailure records one failed disk attempt; degradeAfter of them in a
// row (no intervening success) flip the store to degraded mode.
func (s *Store) noteFailure() {
	if int(s.consecFails.Add(1)) >= s.degradeAfter && !s.degraded.Swap(true) {
		s.degradedAt.Store(time.Now().UnixNano())
	}
}

// noteSuccess resets the failure streak and leaves degraded mode (a disk
// success while degraded can only come from a recovery probe).
func (s *Store) noteSuccess() {
	s.consecFails.Store(0)
	s.degraded.Store(false)
}

// shouldProbe reports whether a degraded store should let this Put through
// to the disk as a recovery probe. At most one caller wins per probeEvery
// window (CAS on the timestamp), so a degraded store under load does not
// hammer a dead disk.
func (s *Store) shouldProbe() bool {
	at := s.degradedAt.Load()
	if time.Since(time.Unix(0, at)) < s.probeEvery {
		return false
	}
	return s.degradedAt.CompareAndSwap(at, time.Now().UnixNano())
}

// Get returns the blob stored under stem. Transient read failures are
// retried with backoff and then reported as a miss; a file whose checksum
// frame fails is quarantined and reported as a miss; in degraded mode the
// disk is not touched at all and every Get misses. The returned slice is
// the caller's to keep — it never aliases store-internal memory.
func (s *Store) Get(stem string) ([]byte, bool) {
	if s.degraded.Load() {
		return nil, false
	}
	if _, ok := s.index.Get(stem); !ok {
		return nil, false
	}

	var raw []byte
	err := s.retry(&s.readErrs, func() error {
		if err := faultinject.Hit(faultRead); err != nil {
			return err
		}
		b, err := os.ReadFile(s.path(stem))
		if err != nil {
			return err
		}
		raw = b
		return nil
	})
	switch {
	case err == nil:
		s.noteSuccess()
		payload, ok := unframeBlob(raw)
		if !ok {
			// Framing says the bytes are corrupt: a content problem, not a
			// disk-health problem.
			s.quarantine(stem)
			return nil, false
		}
		return payload, true
	case os.IsNotExist(err):
		// Vanished behind our back (concurrent cleanup): index drift, not
		// a disk fault.
		s.index.Remove(stem)
	default:
		// Transient IO that survived every retry (already counted). Keep
		// the index entry — the bytes are probably fine, the IO was not.
	}
	return nil, false
}

// frameBlob wraps data in the HCDS1 checksum header.
func frameBlob(data []byte) []byte {
	out := make([]byte, blobHeaderLen+len(data))
	copy(out, blobMagic[:])
	binary.BigEndian.PutUint32(out[len(blobMagic):], crc32.ChecksumIEEE(data))
	binary.BigEndian.PutUint32(out[len(blobMagic)+4:], uint32(len(data)))
	copy(out[blobHeaderLen:], data)
	return out
}

// unframeBlob validates and strips the HCDS1 checksum header.
func unframeBlob(raw []byte) ([]byte, bool) {
	if len(raw) < blobHeaderLen || string(raw[:len(blobMagic)]) != string(blobMagic[:]) {
		return nil, false
	}
	crc := binary.BigEndian.Uint32(raw[len(blobMagic):])
	n := binary.BigEndian.Uint32(raw[len(blobMagic)+4:])
	payload := raw[blobHeaderLen:]
	if uint32(len(payload)) != n || crc32.ChecksumIEEE(payload) != crc {
		return nil, false
	}
	return payload, true
}

// Put stores data under stem: framed, written to a temp file, renamed into
// place, then LRU-evicted down to the byte budget. Transient write
// failures are retried with backoff; a Put that still fails stores
// nothing. In degraded mode the disk is skipped entirely except for one
// recovery probe per probe interval. Stored blobs are deterministic per
// stem: a stem already present is left untouched (and marked most
// recently used).
func (s *Store) Put(stem string, data []byte) {
	if s.degraded.Load() && !s.shouldProbe() {
		return
	}
	if _, exists := s.index.Get(stem); exists {
		return
	}
	blob := frameBlob(data)
	if err := s.retry(&s.writeErrs, func() error {
		return s.writeAttempt(stem, blob)
	}); err != nil {
		return
	}
	s.noteSuccess()
	// A concurrent Put of the same stem wrote identical contents; the
	// index keeps whichever entry landed first.
	s.index.Put(stem, struct{}{}, int64(len(blob)))
}

// writeAttempt is one try at writing a blob: temp file, write, close,
// rename into place. The write error and the rename error are tracked as
// separate fault points, and the temp file is removed on every failure
// path so failed writes leave nothing behind.
func (s *Store) writeAttempt(stem string, blob []byte) error {
	if err := faultinject.Hit(faultWrite); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("create temp: %w", err)
	}
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("write: %w", err)
	}
	if err := faultinject.Hit(faultRename); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("rename: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(stem)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}

// quarantine moves a corrupt blob aside as <stem><ext>.bad instead of
// deleting it — destroying the only evidence of how data got corrupted is
// how storage bugs stay unfixed.
func (s *Store) quarantine(stem string) {
	s.index.Remove(stem)
	if err := os.Rename(s.path(stem), s.path(stem)+QuarantineExt); err != nil {
		// Cannot preserve it; remove so the stem is rebuildable.
		_ = os.Remove(s.path(stem))
	}
	s.quarantined.Add(1)
}

// Stats returns the index size and the disk-health counters.
func (s *Store) Stats() Stats {
	return Stats{
		Entries:     s.index.Len(),
		Bytes:       s.index.Weight(),
		ReadErrors:  s.readErrs.Load(),
		WriteErrors: s.writeErrs.Load(),
		Quarantined: s.quarantined.Load(),
		Degraded:    s.degraded.Load(),
	}
}
