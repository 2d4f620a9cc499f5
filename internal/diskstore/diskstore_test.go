package diskstore

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hierclust/internal/faultinject"
)

// openTest opens a store whose degraded mode never probes unless the test
// shortens probeEvery itself.
func openTest(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(dir, max)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.probeEvery = time.Hour
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), 1<<20)
	want := []byte("payload bytes")
	s.Put("a", want)
	got, ok := s.Get("a")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
	// The returned slice must not alias store or caller memory.
	got[0] = 'X'
	again, ok := s.Get("a")
	if !ok || !bytes.Equal(again, want) {
		t.Fatalf("Get after mutation = %q, %v; want %q, true", again, ok, want)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) reported a hit")
	}
}

func TestStoreRestartReindex(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, 1<<20)
	s1.Put("a", []byte("alpha"))
	s1.Put("b", []byte("beta"))

	// A fresh Store over the same directory sees both blobs.
	s2 := openTest(t, dir, 1<<20)
	if st := s2.Stats(); st.Entries != 2 {
		t.Fatalf("Entries after reopen = %d; want 2", st.Entries)
	}
	for stem, want := range map[string]string{"a": "alpha", "b": "beta"} {
		got, ok := s2.Get(stem)
		if !ok || string(got) != want {
			t.Fatalf("Get(%q) after reopen = %q, %v; want %q", stem, got, ok, want)
		}
	}
}

func TestStoreEvictsToBudget(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	sz := int64(blobHeaderLen + len(payload))
	s := openTest(t, dir, 2*sz)
	s.Put("a", payload)
	s.Put("b", payload)
	s.Put("c", payload) // evicts a (least recently used)
	if st := s.Stats(); st.Entries != 2 || st.Bytes != 2*sz {
		t.Fatalf("Stats = %+v; want 2 entries, %d bytes", st, 2*sz)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("evicted blob still served")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+Ext))
	if len(files) != 2 {
		t.Fatalf("disk has %d blobs; want 2", len(files))
	}
}

func TestStoreQuarantinesCorruptChecksum(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20)
	s.Put("a", []byte("good bytes"))

	garbage := []byte("HCDS1 corrupted beyond the header")
	if err := os.WriteFile(filepath.Join(dir, "a"+Ext), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d; want 1", st.Quarantined)
	}
	if st.ReadErrors != 0 {
		t.Fatalf("ReadErrors = %d; corruption is not an IO error", st.ReadErrors)
	}
	if st.Degraded {
		t.Fatal("corruption degraded the store; only IO failures should")
	}
	bad, err := os.ReadFile(filepath.Join(dir, "a"+Ext+QuarantineExt))
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Equal(bad, garbage) {
		t.Fatal("quarantine file does not preserve the corrupt bytes")
	}
	if _, err := os.Stat(filepath.Join(dir, "a"+Ext)); !os.IsNotExist(err) {
		t.Fatal("corrupt blob still present under its real name")
	}
	// The stem is rebuildable.
	s.Put("a", []byte("rebuilt"))
	if got, ok := s.Get("a"); !ok || string(got) != "rebuilt" {
		t.Fatalf("Get after rebuild = %q, %v", got, ok)
	}
}

// A retried-out write degrades the store: from then on it touches the disk
// for nothing but one probe write per probe interval — every Get misses,
// even of a blob on disk, and every other Put is dropped uncharged — until
// a probe succeeds and the disk serves again.
func TestStoreDegradesOnWriteFaultsAndRecoversViaProbe(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20)
	s.Put("kept", []byte("on disk before the fault"))

	faultinject.Arm(faultWrite, faultinject.Fault{Kind: faultinject.KindError})
	s.Put("a", []byte("alpha"))
	st := s.Stats()
	if st.WriteErrors != OpAttempts {
		t.Fatalf("WriteErrors = %d; want %d", st.WriteErrors, OpAttempts)
	}
	if !st.Degraded {
		t.Fatal("store not degraded after a retried-out write")
	}
	for _, stem := range []string{"a", "kept"} {
		if got, ok := s.Get(stem); ok {
			t.Fatalf("degraded Get(%q) = %q; want a miss (the disk is skipped)", stem, got)
		}
	}
	s.Put("c", []byte("gamma")) // inside the probe interval: dropped
	st = s.Stats()
	if st.WriteErrors != OpAttempts || st.ReadErrors != 0 || st.Entries != 1 {
		t.Fatalf("Stats = %+v; the degraded store touched the disk", st)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Fatalf("disk holds %v; want the one blob stored before the fault", files)
	}

	faultinject.DisarmAll()
	s.probeEvery = 5 * time.Millisecond
	time.Sleep(10 * time.Millisecond)
	s.Put("b", []byte("beta")) // probe: disk healthy again
	st = s.Stats()
	if st.Degraded {
		t.Fatal("store still degraded after a successful probe write")
	}
	if st.Entries != 2 {
		t.Fatalf("Entries = %d; want 2 (the blob before the fault and the probe)", st.Entries)
	}
	for stem, want := range map[string]string{"b": "beta", "kept": "on disk before the fault"} {
		if got, ok := s.Get(stem); !ok || string(got) != want {
			t.Fatalf("post-recovery Get(%q) = %q, %v; want %q", stem, got, ok, want)
		}
	}
}

func TestStoreReadFaultKeepsIndex(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20)
	s.degradeAfter = 100
	s.Put("a", []byte("alpha"))

	faultinject.Arm(faultRead, faultinject.Fault{Kind: faultinject.KindError})
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get served a hit through an injected read fault")
	}
	st := s.Stats()
	if st.ReadErrors != OpAttempts {
		t.Fatalf("ReadErrors = %d; want %d", st.ReadErrors, OpAttempts)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d; transient read failure must keep the index", st.Entries)
	}
	if st.Degraded {
		t.Fatal("degraded despite degradeAfter=100")
	}
	faultinject.DisarmAll()
	if got, ok := s.Get("a"); !ok || string(got) != "alpha" {
		t.Fatalf("Get after disarm = %q, %v", got, ok)
	}
}

func TestStoreRenameFaultCleansTemp(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20)
	s.degradeAfter = 100

	faultinject.Arm(faultRename, faultinject.Fault{Kind: faultinject.KindError})
	s.Put("a", []byte("alpha"))
	if st := s.Stats(); st.WriteErrors != OpAttempts || st.Entries != 0 {
		t.Fatalf("Stats = %+v; want %d write errors, 0 entries", s.Stats(), OpAttempts)
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, "put-*")); len(temps) != 0 {
		t.Fatalf("failed writes left temp files: %v", temps)
	}
	// Nothing was stored: the blob misses, and stores once the rename works.
	if got, ok := s.Get("a"); ok {
		t.Fatalf("Get after a failed write = %q; want a miss", got)
	}
	faultinject.DisarmAll()
	s.Put("a", []byte("alpha"))
	if got, ok := s.Get("a"); !ok || string(got) != "alpha" {
		t.Fatalf("Get after the fault cleared = %q, %v", got, ok)
	}
}

// TestStoreIndexMatchesDirectory runs seeded random sequences of Put, Get,
// in-place corruption and reopen against a budget of about three blobs and
// checks after every step that the index is the directory: its stems are
// the *.hcres files, Stats.Bytes is their summed size, and no put-* temp
// file is left. A Get that hits returns the stem's bytes exactly.
func TestStoreIndexMatchesDirectory(t *testing.T) {
	const stems = 8
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 20+13*i) }
	budget := int64(3 * (blobHeaderLen + 20 + 13*stems/2))
	for seed := uint64(1); seed <= 20; seed++ {
		dir := t.TempDir()
		rng := rand.New(rand.NewPCG(seed, 0))
		s := openTest(t, dir, budget)
		// touched orders the invariant check's index lookups by the
		// sequence's own last use, so checking leaves the recency order as
		// the sequence made it.
		touched, tick := map[string]int{}, 0
		touch := func(stem string) { tick++; touched[stem] = tick }
		for step := 0; step < 200; step++ {
			i := rng.IntN(stems)
			stem := fmt.Sprintf("s%d", i)
			var op string
			switch r := rng.IntN(20); {
			case r < 9:
				op = "put " + stem
				s.Put(stem, payload(i))
				touch(stem)
			case r < 17:
				op = "get " + stem
				if got, ok := s.Get(stem); ok && !bytes.Equal(got, payload(i)) {
					t.Fatalf("seed %d step %d: Get(%s) = %q", seed, step, stem, got)
				}
				touch(stem)
			case r < 19:
				op = "corrupt " + stem
				path := filepath.Join(dir, stem+Ext)
				if raw, err := os.ReadFile(path); err == nil {
					raw[blobHeaderLen+rng.IntN(len(raw)-blobHeaderLen)] ^= 0x20
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			default:
				op = "reopen"
				s = openTest(t, dir, budget)
				clear(touched)
			}
			checkIndexIsDirectory(t, s, dir, touched, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
		}
	}
}

// checkIndexIsDirectory fails unless s's index holds exactly the *.hcres
// files in dir, with their summed size, and no temp file is left. It looks
// stems up least recently touched first (stems a reopen indexed, which
// touched does not know, oldest file first before them), so the lookups
// leave the index's recency order as it was.
func checkIndexIsDirectory(t *testing.T, s *Store, dir string, touched map[string]int, at string) {
	t.Helper()
	if temps, _ := filepath.Glob(filepath.Join(dir, "put-*")); len(temps) != 0 {
		t.Fatalf("%s: temp files left: %v", at, temps)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+Ext))
	if err != nil {
		t.Fatal(err)
	}
	type file struct {
		stem  string
		mtime int64
	}
	var onDisk []file
	var size int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
		onDisk = append(onDisk, file{strings.TrimSuffix(filepath.Base(f), Ext), info.ModTime().UnixNano()})
	}
	sort.Slice(onDisk, func(i, j int) bool {
		if ti, tj := touched[onDisk[i].stem], touched[onDisk[j].stem]; ti != tj {
			return ti < tj
		}
		return onDisk[i].mtime < onDisk[j].mtime
	})
	for _, f := range onDisk {
		if _, ok := s.index.Get(f.stem); !ok {
			t.Fatalf("%s: %s.hcres is on disk but not in the index", at, f.stem)
		}
	}
	if st := s.Stats(); st.Entries != len(onDisk) || st.Bytes != size {
		t.Fatalf("%s: index holds %d entries, %d bytes; the directory %d files, %d bytes",
			at, st.Entries, st.Bytes, len(onDisk), size)
	}
}

// readRecords reads a record directory, keeping every intact record, and
// returns them as name=payload in the order ReadRecords handed them over.
func readRecords(t *testing.T, dir string) (recs []string, bad int) {
	t.Helper()
	bad, err := ReadRecords(dir, ".rec", func(name string, data []byte) error {
		recs = append(recs, name+"="+string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, bad
}

func TestRecordsWriteReadRemove(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "records")
	if recs, bad := readRecords(t, dir); len(recs) != 0 || bad != 0 {
		t.Fatalf("fresh directory = %v, %d bad", recs, bad)
	}
	for i := 4; i >= 0; i-- { // written out of name order
		if err := WriteRecord(dir, fmt.Sprintf("%02d.rec", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteRecord(dir, "02.rec", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if err := RemoveRecord(dir, "03.rec"); err != nil {
		t.Fatal(err)
	}
	if err := RemoveRecord(dir, "03.rec"); err != nil {
		t.Fatalf("removing a removed record: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "foreign.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, bad := readRecords(t, dir)
	want := []string{"00.rec=payload-0", "01.rec=payload-1", "02.rec=replaced", "04.rec=payload-4"}
	if bad != 0 || fmt.Sprint(recs) != fmt.Sprint(want) {
		t.Fatalf("records = %v, %d bad; want %v", recs, bad, want)
	}
}

// A truncated record is quarantined whole to .bad with its bytes intact and
// counted; its siblings still read back, and the next read no longer sees it.
func TestRecordsTruncatedQuarantined(t *testing.T) {
	checkQuarantined(t, map[string]func([]byte) []byte{
		"b.rec": func(b []byte) []byte { return b[:len(b)-3] },
	}, "", "[a.rec c.rec]")
}

// A bit-flipped record, and one whose payload the reader rejects, are
// quarantined to .bad with their bytes intact and counted; their siblings
// still read back, and the next read no longer sees them.
func TestRecordsBitFlipQuarantined(t *testing.T) {
	checkQuarantined(t, map[string]func([]byte) []byte{
		"a.rec": func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		"c.rec": func(b []byte) []byte { return b },
	}, "c.rec", "[b.rec]")
}

// checkQuarantined writes a.rec, b.rec and c.rec, applies edits to their
// bytes on disk, reads them back with a reader that rejects the payload
// reject, and checks that exactly the edited records were quarantined.
func checkQuarantined(t *testing.T, edits map[string]func([]byte) []byte, reject, wantKept string) {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"a.rec", "b.rec", "c.rec"} {
		if err := WriteRecord(dir, name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	quarantined := map[string][]byte{}
	for name, edit := range edits {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		quarantined[name] = edit(raw)
		if err := os.WriteFile(filepath.Join(dir, name), quarantined[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var kept []string
	bad, err := ReadRecords(dir, ".rec", func(name string, data []byte) error {
		if string(data) == reject {
			return fmt.Errorf("reader rejects %s", name)
		}
		kept = append(kept, name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != len(edits) || fmt.Sprint(kept) != wantKept {
		t.Fatalf("ReadRecords kept %v, %d bad; want %s, %d bad", kept, bad, wantKept, len(edits))
	}
	for name, raw := range quarantined {
		got, err := os.ReadFile(filepath.Join(dir, name+QuarantineExt))
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("%s quarantine holds %q (err %v); want its bytes", name, got, err)
		}
	}
	if recs, bad := readRecords(t, dir); bad != 0 || len(recs) != 3-len(edits) {
		t.Fatalf("second read = %v, %d bad; want %d records, 0 bad", recs, bad, 3-len(edits))
	}
}

// A temp file a crash left mid-write is removed, never read as a record.
func TestRecordsInterruptedWriteRemoved(t *testing.T) {
	dir := t.TempDir()
	if err := WriteRecord(dir, "kept.rec", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, recordTempPrefix+"123")
	if err := os.WriteFile(tmp, frameBlob([]byte("half written")), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, bad := readRecords(t, dir); bad != 0 || fmt.Sprint(recs) != "[kept.rec=kept]" {
		t.Fatalf("ReadRecords = %v, %d bad", recs, bad)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the read (stat err %v)", err)
	}
}

// A path that is a regular file is not a record directory.
func TestRecordsRefuseFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, []byte("HCJL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecords(path, ".rec", func(string, []byte) error { return nil }); err == nil {
		t.Fatal("ReadRecords read a regular file as a directory")
	}
}
