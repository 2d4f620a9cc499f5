package diskstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hierclust/internal/faultinject"
)

func openTest(t *testing.T, dir string, max int64, o func(*Options)) *Store {
	t.Helper()
	opts := Options{
		Dir:         dir,
		Ext:         ".blob",
		MaxBytes:    max,
		FaultPrefix: "diskstoretest",
		ProbeEvery:  time.Hour, // tests opt in to probing explicitly
	}
	if o != nil {
		o(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), 1<<20, nil)
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
	s1 := openTest(t, dir, 1<<20, nil)
	s1.Put("a", []byte("alpha"))
	s1.Put("b", []byte("beta"))

	// A fresh Store over the same directory sees both blobs.
	s2 := openTest(t, dir, 1<<20, nil)
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
	s := openTest(t, dir, 2*sz, nil)
	s.Put("a", payload)
	s.Put("b", payload)
	s.Put("c", payload) // evicts a (least recently used)
	if st := s.Stats(); st.Entries != 2 || st.Bytes != 2*sz {
		t.Fatalf("Stats = %+v; want 2 entries, %d bytes", st, 2*sz)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("evicted blob still served")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.blob"))
	if len(files) != 2 {
		t.Fatalf("disk has %d blobs; want 2", len(files))
	}
}

func TestStoreQuarantinesCorruptChecksum(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, nil)
	s.Put("a", []byte("good bytes"))

	garbage := []byte("HCDS1 corrupted beyond the header")
	if err := os.WriteFile(filepath.Join(dir, "a.blob"), garbage, 0o644); err != nil {
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
	bad, err := os.ReadFile(filepath.Join(dir, "a.blob"+QuarantineExt))
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Equal(bad, garbage) {
		t.Fatal("quarantine file does not preserve the corrupt bytes")
	}
	if _, err := os.Stat(filepath.Join(dir, "a.blob")); !os.IsNotExist(err) {
		t.Fatal("corrupt blob still present under its real name")
	}
	// The stem is rebuildable.
	s.Put("a", []byte("rebuilt"))
	if got, ok := s.Get("a"); !ok || string(got) != "rebuilt" {
		t.Fatalf("Get after rebuild = %q, %v", got, ok)
	}
}

func TestStoreDegradesOnWriteFaultsAndRecoversViaProbe(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, func(o *Options) { o.ProbeEvery = 5 * time.Millisecond })

	faultinject.Arm("diskstoretest.write", faultinject.Fault{Kind: faultinject.KindError})
	s.Put("a", []byte("alpha"))
	st := s.Stats()
	if st.WriteErrors != OpAttempts {
		t.Fatalf("WriteErrors = %d; want %d", st.WriteErrors, OpAttempts)
	}
	if !st.Degraded {
		t.Fatal("store not degraded after a retried-out write")
	}
	if st.MemEntries != 1 {
		t.Fatalf("MemEntries = %d; want 1 (fallback holds the blob)", st.MemEntries)
	}
	if got, ok := s.Get("a"); !ok || string(got) != "alpha" {
		t.Fatalf("degraded Get = %q, %v; want alpha via fallback", got, ok)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("degraded store left files on disk: %v", files)
	}

	faultinject.DisarmAll()
	time.Sleep(10 * time.Millisecond)
	s.Put("b", []byte("beta")) // probe: disk healthy again
	st = s.Stats()
	if st.Degraded {
		t.Fatal("store still degraded after a successful probe write")
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d; want 1 (the probe blob)", st.Entries)
	}
	if got, ok := s.Get("b"); !ok || string(got) != "beta" {
		t.Fatalf("post-recovery Get = %q, %v", got, ok)
	}
}

func TestStoreReadFaultKeepsIndex(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, func(o *Options) { o.DegradeAfter = 100 })
	s.Put("a", []byte("alpha"))

	faultinject.Arm("diskstoretest.read", faultinject.Fault{Kind: faultinject.KindError})
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
		t.Fatal("degraded despite DegradeAfter=100")
	}
	faultinject.DisarmAll()
	if got, ok := s.Get("a"); !ok || string(got) != "alpha" {
		t.Fatalf("Get after disarm = %q, %v", got, ok)
	}
}

func TestStoreRenameFaultCleansTemp(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, func(o *Options) { o.DegradeAfter = 100 })

	faultinject.Arm("diskstoretest.rename", faultinject.Fault{Kind: faultinject.KindError})
	s.Put("a", []byte("alpha"))
	if st := s.Stats(); st.WriteErrors != OpAttempts || st.Entries != 0 {
		t.Fatalf("Stats = %+v; want %d write errors, 0 entries", s.Stats(), OpAttempts)
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, "put-*")); len(temps) != 0 {
		t.Fatalf("failed writes left temp files: %v", temps)
	}
	// The blob still serves from the fallback, bit-identical.
	if got, ok := s.Get("a"); !ok || string(got) != "alpha" {
		t.Fatalf("fallback Get = %q, %v", got, ok)
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
