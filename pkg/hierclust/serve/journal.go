package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"hierclust/internal/diskstore"
	"hierclust/pkg/hierclust"
)

// The sweep journal is what makes accepted sweeps survive kill -9: a
// directory of diskstore record files, one per accepted, unfinished job.
// POST /v1/sweeps writes the job's record before the 202 leaves the
// server; every terminal state (completed, failed, cancelled via DELETE,
// forgotten via DELETE or store eviction) deletes it; OpenSweepJournal
// resumes every record left under its original id. With the durable
// result cache, which every finished cell reaches before it is reported
// done, a resumed sweep recomputes only the cells that never hit disk.
//
// A drain-cancelled job deliberately keeps its record: graceful shutdown
// is a restart from the journal's point of view. An explicit DELETE is a
// user decision and is final. A failed record write or remove is counted
// (hcserve_sweep_journal_errors_total) but never fails the request —
// durability degrades before availability does, like the disk caches.

// journalExt names record files; the zero-padded hex sequence number in
// front of it orders them by submission.
const journalExt = ".sweep"

// journalRecord is one record file's payload.
type journalRecord struct {
	ID     string          `json:"id"`
	Client string          `json:"client"`
	Sweep  json.RawMessage `json:"sweep"`
}

// sweepJournal is the mounted journal directory.
type sweepJournal struct {
	dir  string
	seq  atomic.Uint64 // the last sequence number a record name used
	errs atomic.Int64  // failed writes and removes, quarantined records
}

// journalSubmitted writes an accepted sweep's record, when a journal is
// mounted, and names it on the job. Call it before the job's goroutine
// starts: the name is never written again.
func (s *Server) journalSubmitted(job *sweepJob, sweepDoc []byte) {
	sj := s.journal
	if sj == nil {
		return
	}
	payload, err := json.Marshal(&journalRecord{ID: job.id, Client: job.client, Sweep: sweepDoc})
	if err == nil {
		name := fmt.Sprintf("%016x-%s%s", sj.seq.Add(1), job.id, journalExt)
		if err = diskstore.WriteRecord(sj.dir, name, payload); err == nil {
			job.record = name
			return
		}
	}
	sj.errs.Add(1)
	slog.Error("hcserve: sweep journal: record not written", "job", job.id, "err", err)
}

// journalDone deletes a job's record, when it has one. Never call it for
// a drain cancellation — the record left behind is exactly what makes the
// next process resume the job.
func (s *Server) journalDone(job *sweepJob) {
	if s.journal != nil && job.record != "" {
		s.journal.remove(job.record)
	}
}

// remove deletes one record file.
func (sj *sweepJournal) remove(name string) {
	if err := diskstore.RemoveRecord(sj.dir, name); err != nil {
		sj.errs.Add(1)
		slog.Error("hcserve: sweep journal: record not removed", "err", err)
	}
}

// OpenSweepJournal mounts the crash-safe sweep journal in directory dir
// (created if needed) and resumes every job it holds a record of, in
// submission order: each one is re-decoded, re-planned, and started as a
// background job under its original id, so clients polling
// GET /v1/sweeps/{id} across the restart never notice beyond the pause.
// A record that no longer decodes or plans is deleted; one that does not
// parse at all is quarantined to .bad; one whose job finds the store full
// stays for the next restart. Returns how many jobs were resumed.
//
// A regular file at dir — the single-file journal of an older server — is
// refused with an error rather than read: drain that server before
// upgrading, so it holds no unfinished job.
//
// Call it once, after New and before serving traffic; submissions
// accepted before the journal is mounted are not journaled.
func (s *Server) OpenSweepJournal(dir string) (resumed int, err error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return 0, fmt.Errorf("hcserve: sweep journal %s is a file, not a directory: an older server's journal? drain that server, then move the file away", dir)
	}
	sj := &sweepJournal{dir: dir}
	s.journal = sj // resumed jobs delete their records when they finish
	bad, err := diskstore.ReadRecords(dir, journalExt, func(name string, data []byte) error {
		if n, err := strconv.ParseUint(name[:min(16, len(name))], 16, 64); err == nil && n > sj.seq.Load() {
			sj.seq.Store(n) // new records sort after every one left
		}
		var rec journalRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID == "" {
			return cmp.Or(err, errors.New("record has no job id")) // quarantined
		}
		sw, err := hierclust.DecodeSweep(rec.Sweep)
		var plan *hierclust.SweepPlan
		if err == nil {
			plan, err = hierclust.PlanSweep(sw)
		}
		if err != nil {
			slog.Warn("hcserve: sweep journal: job no longer plans; dropped", "job", rec.ID, "err", err)
			sj.remove(name)
			return nil
		}
		jobCtx, jobCancel := context.WithCancel(s.ctx)
		job := newSweepJob(rec.ID, plan, rec.Client, jobCancel)
		job.record = name
		if err := s.storeSweepJob(job); err != nil {
			// Store full of running jobs (or draining): keep the record so
			// the next restart tries again.
			jobCancel()
			slog.Warn("hcserve: sweep journal: job not resumed", "job", rec.ID, "err", err)
			return nil
		}
		go s.runSweepJob(jobCtx, job)
		resumed++
		return nil
	})
	if err != nil {
		return resumed, err
	}
	if bad > 0 {
		slog.Warn("hcserve: sweep journal: quarantined corrupt records", "count", bad, "dir", dir)
	}
	sj.errs.Add(int64(bad))
	s.reg.CounterFunc("hcserve_sweep_journal_errors_total",
		"Sweep-journal record write/remove failures and quarantined records (durability degraded; submissions still serve).",
		func() float64 { return float64(sj.errs.Load()) })
	s.reg.GaugeFunc("hcserve_sweep_journal_live",
		"Sweep-journal record files: accepted, unfinished jobs (would resume after a crash).",
		func() float64 {
			names, _ := filepath.Glob(filepath.Join(dir, "*"+journalExt))
			return float64(len(names))
		})
	if resumed > 0 {
		slog.Info("hcserve: sweep journal: resumed interrupted jobs", "count", resumed, "dir", dir)
	}
	return resumed, nil
}
