package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/pkg/hierclust"
)

// These drills pin the tentpole contract of the durable result store +
// sweep journal: a sweep interrupted by process death (graceful drain or
// kill -9) resumes on restart under its original job id, recomputes only
// the cells that never reached disk, and streams results byte-identical
// to an uninterrupted run.

// drillSweepDoc is a 3 machines × 2 strategies grid (6 cells) small
// enough to pace with the sweep.cell latency fault.
func drillSweepDoc(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"base": {
			"name": "drill-base",
			"machine": {"nodes": 16},
			"placement": {"ranks": 64, "procs_per_node": 4},
			"trace": {"source": "synthetic", "iterations": 10}
		},
		"axes": {
			"machines": [
				{"nodes": 16},
				{"nodes": 8, "ranks": 32, "procs_per_node": 4},
				{"nodes": 4, "ranks": 16, "procs_per_node": 4}
			],
			"strategies": [[{"kind": "naive", "size": 8}], [{"kind": "hierarchical"}]]
		}
	}`, name)
}

// pollSweepUntil polls the job's status until ok returns true, failing
// the test if the job reaches a terminal state (or the deadline) first.
func pollSweepUntil(t *testing.T, url, id string, ok func(*sweepStatusDoc) bool) *sweepStatusDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var doc sweepStatusDoc
		derr := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		if ok(&doc) {
			return &doc
		}
		if doc.State != "running" {
			t.Fatalf("sweep %s reached %q before the poll condition: %+v", id, doc.State, doc)
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll condition never met: %+v", doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cleanSweepReference runs the same sweep on a fresh in-process server
// with no persistence and returns its result lines — the uninterrupted
// run every drill compares against.
func cleanSweepReference(t *testing.T, doc string) []CellLine {
	t.Helper()
	s := New(Options{CacheSize: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()
	job := submitSweep(t, ts.URL, doc)
	final := pollSweep(t, ts.URL, job.ID)
	if final.State != "completed" || final.Cells.Failed != 0 {
		t.Fatalf("reference run = %+v; want completed with 0 failed", final)
	}
	_, lines := sweepResults(t, ts.URL, job.ID)
	if !s.waitForSweeps(5 * time.Second) {
		t.Fatal("reference sweep goroutine did not exit")
	}
	return lines
}

// assertResumedMatchesReference checks byte-identity of every resumed
// cell document against the uninterrupted run.
func assertResumedMatchesReference(t *testing.T, got, want []CellLine) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("resumed run streamed %d lines; reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Status != http.StatusOK {
			t.Fatalf("resumed cell %d status = %d (%s)", i, got[i].Status, got[i].Error)
		}
		if !bytes.Equal(got[i].Result, want[i].Result) {
			t.Fatalf("resumed cell %d document differs from the uninterrupted run:\n%s\nvs\n%s",
				i, got[i].Result, want[i].Result)
		}
	}
}

// TestJournalDrainRestartResume drives the graceful-restart path fully
// in-process: a drained server writes no completion record for its
// running sweep, so the next server (same journal, same disk result
// cache) resumes the job under its original id, serves the already-done
// cells from disk, and completes with results byte-identical to an
// uninterrupted run.
func TestJournalDrainRestartResume(t *testing.T) {
	defer faultinject.DisarmAll()
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "sweeps.journal")
	resultsDir := filepath.Join(dir, "results")

	rc1, err := hierclust.NewDiskResultCache(resultsDir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Options{CacheSize: 4, MaxConcurrent: 1, ResultCache: rc1})
	if n, err := srv1.OpenSweepJournal(journalPath); err != nil || n != 0 {
		t.Fatalf("fresh journal: resumed %d, err %v", n, err)
	}
	ts1 := httptest.NewServer(srv1)

	// Pace computed cells so the drain lands mid-sweep; MaxConcurrent 1
	// serializes them, so "Completed >= 2" means exactly cells 0 and 1
	// reached the durable cache.
	faultinject.Arm("sweep.cell", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 100 * time.Millisecond})

	doc := drillSweepDoc("drain-drill")
	job := submitSweep(t, ts1.URL, doc)
	if job.Cells.Total != 6 {
		t.Fatalf("planned %d cells; want 6", job.Cells.Total)
	}
	pre := pollSweepUntil(t, ts1.URL, job.ID, func(d *sweepStatusDoc) bool {
		return d.Cells.Completed >= 2
	})
	srv1.Drain()
	ts1.Close()
	faultinject.DisarmAll()

	// The interrupted job must not have finished cleanly — that is the
	// point of draining mid-run.
	if st := srv1.lookupSweepJob(job.ID).currentState(); st != "cancelled" {
		t.Fatalf("drained job state = %q; want cancelled", st)
	}

	rc2, err := hierclust.NewDiskResultCache(resultsDir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Options{CacheSize: 4, ResultCache: rc2})
	resumed, err := srv2.OpenSweepJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs; want 1", resumed)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	final := pollSweep(t, ts2.URL, job.ID)
	if final.State != "completed" || final.Cells.Failed != 0 {
		t.Fatalf("resumed job = %+v; want completed with 0 failed", final)
	}
	if final.Cells.Cached < pre.Cells.Completed {
		t.Fatalf("resumed job served %d cells from cache; want >= %d (the cells done before the drain)",
			final.Cells.Cached, pre.Cells.Completed)
	}
	_, lines := sweepResults(t, ts2.URL, job.ID)
	assertResumedMatchesReference(t, lines, cleanSweepReference(t, doc))
	if !srv2.waitForSweeps(5 * time.Second) {
		t.Fatal("resumed sweep goroutine did not exit")
	}
}

// TestJournalCompletedAndForgottenJobsStayDone pins the completion
// records: a job that finished (or was DELETEd) before the restart must
// not be resurrected.
func TestJournalCompletedAndForgottenJobsStayDone(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "sweeps.journal")

	srv1 := New(Options{CacheSize: 16})
	if _, err := srv1.OpenSweepJournal(journalPath); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	done := submitSweep(t, ts1.URL, sweepDoc("finishes"))
	pollSweep(t, ts1.URL, done.ID)
	forgotten := submitSweep(t, ts1.URL, drillSweepDoc("forgotten"))
	pollSweep(t, ts1.URL, forgotten.ID)
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/sweeps/"+forgotten.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d; want 204", resp.StatusCode)
	}
	if !srv1.waitForSweeps(5 * time.Second) {
		t.Fatal("sweep goroutines did not exit")
	}
	ts1.Close()

	srv2 := New(Options{CacheSize: 16})
	resumed, err := srv2.OpenSweepJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("resumed %d jobs; want 0 (both reached terminal records)", resumed)
	}
}

// TestRestartDrillChild is the helper process for
// TestChaosRestartSweepSurvivesKill: a real hcserve wired with the disk
// result cache and sweep journal, paced by a sweep.cell latency fault,
// serving until the parent kills the process. It skips unless spawned by
// the parent.
func TestRestartDrillChild(t *testing.T) {
	dir := os.Getenv("HCSERVE_DRILL_DIR")
	if os.Getenv("HCSERVE_RESTART_CHILD") != "1" || dir == "" {
		t.Skip("helper process for TestChaosRestartSweepSurvivesKill")
	}
	rc, err := hierclust.NewDiskResultCache(filepath.Join(dir, "results"), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{CacheSize: 4, MaxConcurrent: 1, ResultCache: rc})
	if _, err := s.OpenSweepJournal(filepath.Join(dir, "sweeps.journal")); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm("sweep.cell", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 250 * time.Millisecond})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Publish the address atomically so the parent never reads a partial
	// file.
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		t.Fatal(err)
	}
	_ = http.Serve(ln, s) // until SIGKILL
}

// startDrillChild execs this test binary as the drill server and waits
// for it to publish its address.
func startDrillChild(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	addrPath := filepath.Join(dir, "addr")
	_ = os.Remove(addrPath)
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRestartDrillChild$")
	cmd.Env = append(os.Environ(), "HCSERVE_RESTART_CHILD=1", "HCSERVE_DRILL_DIR="+dir)
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(addrPath); err == nil {
			return cmd, "http://" + string(b)
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			t.Fatalf("drill child never published an address; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosRestartSweepSurvivesKill is the kill -9 drill: a real child
// process (this test binary re-exec'd, so it runs under the same -race
// build) accepts a sweep, is SIGKILLed mid-run, and is restarted over the
// same journal + disk result cache. The job must resume under its
// original id, serve the pre-kill cells from the durable cache, and
// finish with results byte-identical to an uninterrupted run.
func TestChaosRestartSweepSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes")
	}
	dir := t.TempDir()

	child, url := startDrillChild(t, dir)
	doc := drillSweepDoc("kill-drill")
	job := submitSweep(t, url, doc)
	if job.Cells.Total != 6 {
		t.Fatalf("planned %d cells; want 6", job.Cells.Total)
	}
	// MaxConcurrent 1 + 250ms latency per computed cell: by "Completed
	// >= 2" the job is mid-run with at least four cells outstanding.
	pre := pollSweepUntil(t, url, job.ID, func(d *sweepStatusDoc) bool {
		return d.Cells.Completed >= 2
	})

	// kill -9: no drain, no journal record, possibly a torn final append.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = child.Wait()

	_, url = startDrillChild(t, dir)
	final := pollSweep(t, url, job.ID)
	if final.State != "completed" || final.Cells.Failed != 0 {
		t.Fatalf("resumed job = %+v; want completed with 0 failed", final)
	}
	if final.Cells.Cached < pre.Cells.Completed {
		t.Fatalf("resumed job served %d cells from cache; want >= %d (the cells done before kill -9)",
			final.Cells.Cached, pre.Cells.Completed)
	}
	_, lines := sweepResults(t, url, job.ID)
	assertResumedMatchesReference(t, lines, cleanSweepReference(t, doc))
}

// waitForSweeps blocks until no job is running (leakcheck requires every
// job goroutine to join).
func (s *Server) waitForSweeps(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.runningSweeps() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
