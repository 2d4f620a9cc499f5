package serve

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hierclust/internal/diskstore"
	"hierclust/internal/faultinject"
)

// drainedJournal submits n paced sweeps to a server journaling into a
// fresh directory and drains it while all n run, so the directory holds
// one record per job. It returns the directory and the job ids in
// submission order.
func drainedJournal(t *testing.T, n int) (string, []string) {
	t.Helper()
	defer faultinject.DisarmAll()
	dir := filepath.Join(t.TempDir(), "sweeps.journal")
	srv := New(Options{CacheSize: 4, MaxConcurrent: 1, MaxConcurrentSweeps: n})
	if _, err := srv.OpenSweepJournal(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	faultinject.Arm("sweep.cell", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 100 * time.Millisecond})
	var ids []string
	for i := range n {
		ids = append(ids, submitSweep(t, ts.URL, drillSweepDoc(string(rune('a'+i)))).ID)
	}
	srv.Drain()
	ts.Close()
	for _, id := range ids {
		if st := srv.lookupSweepJob(id).currentState(); st != "cancelled" {
			t.Fatalf("drained job %s state = %q; want cancelled", id, st)
		}
	}
	if got := journalRecords(t, dir); len(got) != n {
		t.Fatalf("drained journal holds %d records; want %d", len(got), n)
	}
	return dir, ids
}

// journalRecords lists the record files in a journal directory.
func journalRecords(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+journalExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// resumeJournal opens the journal on a new server and waits for every
// resumed job to finish, returning the server and how many it resumed.
// Cells are paced while the journal opens, so no resumed job can finish
// and free its slot before the last record is read.
func resumeJournal(t *testing.T, dir string, o Options) (*Server, int) {
	t.Helper()
	srv := New(o)
	faultinject.Arm("sweep.cell", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 100 * time.Millisecond})
	resumed, err := srv.OpenSweepJournal(dir)
	faultinject.DisarmAll()
	if err != nil {
		t.Fatal(err)
	}
	if !srv.waitForSweeps(30 * time.Second) {
		t.Fatal("resumed sweeps did not finish")
	}
	return srv, resumed
}

// TestJournalResumesInSubmissionOrder: with room for one running sweep,
// a restart resumes the earliest-submitted of three drained jobs; the
// other two keep their records and resume, in order, on the next restart.
func TestJournalResumesInSubmissionOrder(t *testing.T) {
	dir, ids := drainedJournal(t, 3)

	srv2, resumed := resumeJournal(t, dir, Options{CacheSize: 4, MaxConcurrentSweeps: 1})
	if resumed != 1 {
		t.Fatalf("first restart resumed %d jobs; want 1", resumed)
	}
	if j := srv2.lookupSweepJob(ids[0]); j == nil || j.currentState() != "completed" {
		t.Fatalf("earliest job %s not resumed to completion", ids[0])
	}
	for _, id := range ids[1:] {
		if srv2.lookupSweepJob(id) != nil {
			t.Fatalf("job %s resumed past the one-sweep bound", id)
		}
	}
	if got := journalRecords(t, dir); len(got) != 2 {
		t.Fatalf("journal holds %d records after the first restart; want 2", len(got))
	}

	srv3, resumed := resumeJournal(t, dir, Options{CacheSize: 4})
	if resumed != 2 {
		t.Fatalf("second restart resumed %d jobs; want 2", resumed)
	}
	if !slices.Equal(srv3.sweepOrder, ids[1:]) {
		t.Fatalf("second restart stored jobs %v; want %v", srv3.sweepOrder, ids[1:])
	}
	for _, id := range ids[1:] {
		if st := srv3.lookupSweepJob(id).currentState(); st != "completed" {
			t.Fatalf("job %s = %q after the second restart; want completed", id, st)
		}
	}
	if got := journalRecords(t, dir); len(got) != 0 {
		t.Fatalf("journal holds %v after every job completed", got)
	}
}

// TestJournalCorruptRecordQuarantined: a record whose frame fails its
// checksum, and one that frames but does not parse, are each moved to
// .bad with their bytes and counted; their sibling records still resume.
func TestJournalCorruptRecordQuarantined(t *testing.T) {
	dir, ids := drainedJournal(t, 3)
	recs := journalRecords(t, dir)
	flipped, err := os.ReadFile(recs[1])
	if err != nil {
		t.Fatal(err)
	}
	flipped[len(flipped)-1] ^= 0xFF
	if err := os.WriteFile(recs[1], flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	garbled := filepath.Join(dir, "ffffffffffffffff-garbled"+journalExt)
	if err := diskstore.WriteRecord(dir, filepath.Base(garbled), []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	garbledRaw, err := os.ReadFile(garbled)
	if err != nil {
		t.Fatal(err)
	}

	srv2, resumed := resumeJournal(t, dir, Options{CacheSize: 4, MaxConcurrentSweeps: 3})
	if resumed != 2 {
		t.Fatalf("resumed %d jobs; want the 2 intact ones", resumed)
	}
	for _, id := range []string{ids[0], ids[2]} {
		if j := srv2.lookupSweepJob(id); j == nil || j.currentState() != "completed" {
			t.Fatalf("intact job %s not resumed to completion", id)
		}
	}
	if srv2.lookupSweepJob(ids[1]) != nil {
		t.Fatalf("corrupt job %s resumed", ids[1])
	}
	for path, raw := range map[string][]byte{recs[1]: flipped, garbled: garbledRaw} {
		kept, err := os.ReadFile(path + diskstore.QuarantineExt)
		if err != nil || !bytes.Equal(kept, raw) {
			t.Fatalf("%s: quarantine holds %d bytes (err %v); want its %d bytes", filepath.Base(path), len(kept), err, len(raw))
		}
	}
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	text := scrapeMetrics(t, ts.URL)
	metricLine(t, text, "hcserve_sweep_journal_errors_total 2")
	metricLine(t, text, "hcserve_sweep_journal_live 0")
}

// TestJournalRefusesOldJournalFile: a regular file at the journal path —
// an older server's single-file journal — is refused with an error naming
// it, and left as it was.
func TestJournalRefusesOldJournalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweeps.journal")
	old := []byte("HCJL\x01\x00\x00\x00\x02\x00\x00\x00\x00{}")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{CacheSize: 4}).OpenSweepJournal(path)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenSweepJournal over a file = %v; want an error naming %s", err, path)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, old) {
		t.Fatalf("old journal file changed (err %v)", err)
	}
}
