package serve

import (
	"context"
	"encoding/json"
	"log"
	"sync"
	"sync/atomic"

	"hierclust/internal/diskstore"
	"hierclust/pkg/hierclust"
)

// The sweep journal is what makes accepted sweeps survive kill -9. Every
// POST /v1/sweeps appends the validated sweep document and its job id
// before the 202 leaves the server; every terminal state (completed,
// failed, cancelled via DELETE, forgotten via store eviction) appends a
// completion record. On startup, OpenSweepJournal replays the log: a
// submit with no matching completion is an interrupted job, and the
// server re-plans it and resumes it under its original id as background
// work. Combined with the durable result cache — which every finished
// cell reaches before it is reported done — a resumed sweep recomputes
// only the cells that never hit disk.
//
// A drain-cancelled job deliberately writes NO completion record: graceful
// shutdown is a restart from the journal's point of view, so the next
// process resumes the job. An explicit DELETE is a user decision and is
// final.
//
// The journal is an internal/diskstore.Journal: checksummed records
// appended with a single write + sync, and a corrupt tail (torn final
// append) quarantined to <path>.bad and truncated on open. Append
// failures after acceptance are counted (hcserve_sweep_journal_errors
// on /metrics) but do not fail the request — durability degrades before
// availability does, matching the disk caches.
const (
	sweepJournalSubmit byte = 1
	sweepJournalDone   byte = 2
)

// journalSubmit is the payload of a sweepJournalSubmit record.
type journalSubmit struct {
	ID     string          `json:"id"`
	Client string          `json:"client"`
	Sweep  json.RawMessage `json:"sweep"`
}

// journalDone is the payload of a sweepJournalDone record. State records
// why the job left the store: "completed", "failed", "cancelled", or
// "forgotten" (DELETE of a finished job, or bounded-store eviction).
type journalDone struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// journalCompactDeadMin is how many completed records accumulate before a
// compaction rewrite is worth the IO.
const journalCompactDeadMin = 32

// sweepJournal tracks the live (incomplete) submits alongside the on-disk
// log so it can compact: when completed records outnumber live ones the
// log is rewritten to just the live submits.
type sweepJournal struct {
	mu    sync.Mutex
	j     *diskstore.Journal
	live  map[string]*journalSubmit
	order []string // submit order among live ids
	dead  int      // records the next compaction would drop
	errs  atomic.Int64
}

// recordSubmit journals an accepted sweep before its 202 is written.
func (sj *sweepJournal) recordSubmit(id, client string, sweepDoc []byte) {
	payload, err := json.Marshal(&journalSubmit{ID: id, Client: client, Sweep: sweepDoc})
	if err != nil {
		sj.errs.Add(1)
		log.Printf("hcserve: sweep journal: encode submit %s: %v", id, err)
		return
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if err := sj.j.Append(sweepJournalSubmit, payload); err != nil {
		sj.errs.Add(1)
		log.Printf("hcserve: sweep journal: %v", err)
		return
	}
	sj.live[id] = &journalSubmit{ID: id, Client: client, Sweep: sweepDoc}
	sj.order = append(sj.order, id)
}

// recordDone journals a job's terminal state and compacts the log when
// completed records dominate it.
func (sj *sweepJournal) recordDone(id, state string) {
	payload, err := json.Marshal(&journalDone{ID: id, State: state})
	if err != nil {
		sj.errs.Add(1)
		log.Printf("hcserve: sweep journal: encode done %s: %v", id, err)
		return
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if err := sj.j.Append(sweepJournalDone, payload); err != nil {
		sj.errs.Add(1)
		log.Printf("hcserve: sweep journal: %v", err)
		return
	}
	sj.dropLiveLocked(id)
	sj.dead += 2 // the submit it closes plus the done record itself
	sj.compactLocked()
}

func (sj *sweepJournal) dropLiveLocked(id string) {
	if _, ok := sj.live[id]; !ok {
		return
	}
	delete(sj.live, id)
	for i, oid := range sj.order {
		if oid == id {
			sj.order = append(sj.order[:i], sj.order[i+1:]...)
			break
		}
	}
}

// compactLocked rewrites the log down to the live submits once the dead
// records both clear a floor and outnumber the live ones.
func (sj *sweepJournal) compactLocked() {
	if sj.dead < journalCompactDeadMin || sj.dead <= len(sj.live) {
		return
	}
	recs := make([]diskstore.Record, 0, len(sj.order))
	for _, id := range sj.order {
		payload, err := json.Marshal(sj.live[id])
		if err != nil {
			sj.errs.Add(1)
			return
		}
		recs = append(recs, diskstore.Record{Kind: sweepJournalSubmit, Payload: payload})
	}
	if err := sj.j.Rewrite(recs); err != nil {
		sj.errs.Add(1)
		log.Printf("hcserve: sweep journal: %v", err)
		return
	}
	sj.dead = 0
}

// journalSubmitted records an accepted sweep, when a journal is mounted.
func (s *Server) journalSubmitted(id, client string, sweepDoc []byte) {
	if s.journal != nil {
		s.journal.recordSubmit(id, client, sweepDoc)
	}
}

// journalDone records a terminal state, when a journal is mounted. Never
// call it for a drain cancellation — the missing completion record is
// exactly what makes the next process resume the job.
func (s *Server) journalDone(id, state string) {
	if s.journal != nil {
		s.journal.recordDone(id, state)
	}
}

// OpenSweepJournal mounts the crash-safe sweep journal at path and
// resumes every journaled job with no completion record: each one is
// re-decoded, re-planned, and started as a background job under its
// original id, so clients polling GET /v1/sweeps/{id} across the restart
// never notice beyond the pause. Returns how many jobs were resumed.
//
// Call it once, after New and before serving traffic; submissions
// accepted before the journal is mounted are not journaled.
func (s *Server) OpenSweepJournal(path string) (resumed int, err error) {
	j, recs, err := diskstore.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	sj := &sweepJournal{j: j, live: map[string]*journalSubmit{}}
	for _, rec := range recs {
		switch rec.Kind {
		case sweepJournalSubmit:
			var sub journalSubmit
			if err := json.Unmarshal(rec.Payload, &sub); err != nil || sub.ID == "" {
				sj.dead++
				continue
			}
			sj.dropLiveLocked(sub.ID) // duplicate id: last submit wins
			sj.live[sub.ID] = &sub
			sj.order = append(sj.order, sub.ID)
		case sweepJournalDone:
			var done journalDone
			if err := json.Unmarshal(rec.Payload, &done); err != nil {
				sj.dead++
				continue
			}
			sj.dropLiveLocked(done.ID)
			sj.dead += 2
		default:
			sj.dead++
		}
	}
	s.journal = sj
	s.reg.CounterFunc("hcserve_sweep_journal_errors_total",
		"Sweep-journal append/rewrite failures (durability degraded; submissions still serve).",
		func() float64 { return float64(sj.errs.Load()) })
	s.reg.GaugeFunc("hcserve_sweep_journal_live",
		"Journaled sweep jobs with no completion record (would resume after a crash).",
		func() float64 {
			sj.mu.Lock()
			defer sj.mu.Unlock()
			return float64(len(sj.live))
		})

	// Resume interrupted jobs in submission order.
	for _, id := range append([]string(nil), sj.order...) {
		sub := sj.live[id]
		sw, derr := hierclust.DecodeSweep(sub.Sweep)
		if derr != nil {
			log.Printf("hcserve: sweep journal: job %s no longer decodes (%v); dropping", id, derr)
			sj.recordDone(id, "failed")
			continue
		}
		plan, perr := hierclust.PlanSweep(sw)
		if perr != nil {
			log.Printf("hcserve: sweep journal: job %s no longer plans (%v); dropping", id, perr)
			sj.recordDone(id, "failed")
			continue
		}
		jobCtx, jobCancel := context.WithCancel(s.sweepCtx)
		job := newSweepJob(id, plan, sub.Client, jobCancel)
		if serr := s.storeSweepJob(job); serr != nil {
			// Store full of running jobs (or draining): keep the submit
			// record so the next restart tries again.
			jobCancel()
			log.Printf("hcserve: sweep journal: job %s not resumed: %v", id, serr)
			continue
		}
		go s.runSweepJob(jobCtx, job)
		resumed++
	}
	if resumed > 0 {
		log.Printf("hcserve: sweep journal: resumed %d interrupted job(s) from %s", resumed, path)
	}
	return resumed, nil
}

// CloseSweepJournal closes the journal's append handle (tests; the server
// process normally holds it for life).
func (s *Server) CloseSweepJournal() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.j.Close()
}
