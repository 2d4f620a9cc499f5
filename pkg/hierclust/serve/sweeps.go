package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"hierclust/pkg/hierclust"
)

// Sweeps run as asynchronous jobs: POST /v1/sweeps validates and *plans*
// the sweep synchronously (so over-bound or malformed grids fail fast with
// a request-scoped error), then answers 202 with a job id while the cells
// execute in the background. GET /v1/sweeps/{id} reports progress,
// GET /v1/sweeps/{id}/results streams one NDJSON line per cell in
// deterministic plan order as each completes, and DELETE cancels a running
// job (or forgets a finished one). Cells acquire evaluation slots through
// the shared admission limiter in the background tier, so a sweep soaks up
// idle capacity without starving interactive traffic, and completed cells
// land in the same result cache that serves POST /v1/evaluate — which is
// both the cross-warming path and the resume mechanism: resubmitting an
// interrupted sweep re-evaluates only the cells the cache doesn't hold.
// With a durable result tier (Options.ResultCache) and a sweep journal
// (OpenSweepJournal) mounted, resume also survives process death: the
// journaled job restarts under its original id and its finished cells
// load back from disk.

// sweepStatusDoc is the GET /v1/sweeps/{id} (and POST /v1/sweeps) body.
type sweepStatusDoc struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"` // "running", "completed", "failed", "cancelled"
	Cells struct {
		Total     int `json:"total"`
		Done      int `json:"done"`
		Completed int `json:"completed"`
		Cached    int `json:"cached"`
		Failed    int `json:"failed"`
	} `json:"cells"`
	Plan struct {
		TraceBuilds     int     `json:"trace_builds"`
		TraceRefs       int     `json:"trace_refs"`
		PartitionBuilds int     `json:"partition_builds"`
		PartitionRefs   int     `json:"partition_refs"`
		DedupRatio      float64 `json:"dedup_ratio"`
	} `json:"plan"`
	ResultsURL string `json:"results_url"`
}

// sweepJob is one submitted sweep and its execution state: its lines, one
// per plan cell, and under their table's mu its state.
type sweepJob struct {
	id     string
	client string
	plan   *hierclust.SweepPlan
	cancel context.CancelFunc
	record string // its sweep-journal record file; "" when it has none

	*lineTable
	state string
}

func newSweepJob(id string, plan *hierclust.SweepPlan, client string, cancel context.CancelFunc) *sweepJob {
	return &sweepJob{
		id:        id,
		client:    client,
		plan:      plan,
		cancel:    cancel,
		lineTable: newLineTable(len(plan.Cells)),
		state:     "running",
	}
}

// finish marks the job's terminal state and fills any cell line the
// executor never delivered (cells undispatched at cancellation), so every
// results stream terminates.
func (j *sweepJob) finish(state string, fillStatus int, fillErr string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.fillLocked(func(i int) CellLine {
		return CellLine{Index: i, Scenario: j.plan.Cells[i].Scenario.Name, Status: fillStatus, Error: fillErr}
	})
}

func (j *sweepJob) statusDoc() *sweepStatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := &sweepStatusDoc{ID: j.id, Name: j.plan.Sweep.Name, State: j.state}
	doc.Cells.Total = len(j.plan.Cells)
	doc.Cells.Done = j.done
	doc.Cells.Cached = j.cached
	doc.Cells.Failed = j.failed
	doc.Cells.Completed = j.done - j.cached - j.failed
	doc.Plan.TraceBuilds = j.plan.TraceBuilds
	doc.Plan.TraceRefs = j.plan.TraceRefs
	doc.Plan.PartitionBuilds = j.plan.PartitionBuilds
	doc.Plan.PartitionRefs = j.plan.PartitionRefs
	doc.Plan.DedupRatio = j.plan.DedupRatio()
	doc.ResultsURL = "/v1/sweeps/" + j.id + "/results"
	return doc
}

func (j *sweepJob) currentState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// runningSweeps counts jobs still executing.
func (s *Server) runningSweeps() int {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	return s.runningSweepsLocked()
}

func (s *Server) runningSweepsLocked() int {
	n := 0
	for _, j := range s.sweepJobs {
		if j.currentState() == "running" {
			n++
		}
	}
	return n
}

// forgetSweepJobLocked drops a job from the store.
func (s *Server) forgetSweepJobLocked(id string) {
	delete(s.sweepJobs, id)
	s.sweepOrder = slices.DeleteFunc(s.sweepOrder, func(o string) bool { return o == id })
}

// storeSweepJob registers a job, evicting the oldest finished job when the
// store is full. It fails when every retained job is still running, or when
// the server is draining. On success the job is accounted in sweepWG and
// the sweep counters; the caller must spawn runSweepJob (which calls sweepWG.Done). Re-checking
// s.ctx and calling Add under sweepMu — the same lock Drain holds while
// cancelling it — guarantees no Add can race sweepWG.Wait, so no job
// goroutine outlives Drain.
func (s *Server) storeSweepJob(j *sweepJob) error {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if s.ctx.Err() != nil {
		return errDrainingRetry
	}
	if running := s.runningSweepsLocked(); running >= s.maxSweeps {
		return fmt.Errorf("hierclust: %d sweep jobs already running (bound %d); retry after %ss",
			running, s.maxSweeps, s.retryAfter)
	}
	for len(s.sweepJobs) >= s.maxSweepJobs {
		i := slices.IndexFunc(s.sweepOrder, func(id string) bool { return s.sweepJobs[id].currentState() != "running" })
		if i < 0 {
			return fmt.Errorf("hierclust: sweep job store full (%d jobs, all running); retry after %ss",
				len(s.sweepJobs), s.retryAfter)
		}
		// Evicted jobs are gone from the store, so their journal records
		// must go too or a restart would resurrect them.
		// (journalDone never takes sweepMu.)
		old := s.sweepJobs[s.sweepOrder[i]]
		s.forgetSweepJobLocked(old.id)
		s.journalDone(old)
	}
	s.sweepJobs[j.id] = j
	s.sweepOrder = append(s.sweepOrder, j.id)
	s.sweepWG.Add(1)
	s.sweepJobsTotal.Inc()
	s.sweepCellsTotal.Add(uint64(len(j.plan.Cells)))
	s.sweepBuilds.Add(uint64(j.plan.TraceBuilds + j.plan.PartitionBuilds))
	s.sweepRefs.Add(uint64(j.plan.TraceRefs + j.plan.PartitionRefs))
	return nil
}

func (s *Server) lookupSweepJob(id string) *sweepJob {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	return s.sweepJobs[id]
}

func sweepJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if s.ctx.Err() != nil {
		w.Header().Set("Retry-After", s.retryAfter)
		s.writeError(w, http.StatusServiceUnavailable, errDrainingRetry)
		return
	}
	body, ok := s.readBody(w, r, maxBatchBody)
	if !ok {
		return
	}
	sw, err := hierclust.DecodeSweep(body)
	if err == nil {
		err = checkHTTPSource(sw.Base.Trace) // axes never override the source
	}
	if err != nil {
		s.writeError(w, invalidStatus(err), err)
		return
	}
	if n := sw.CellCount(); n > s.maxSweepCells {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("hierclust: sweep of %d cells exceeds the server's %d-cell bound", n, s.maxSweepCells))
		return
	}
	plan, err := hierclust.PlanSweep(sw) // expands and validates each cell
	if err != nil {
		s.writeError(w, invalidStatus(err), err)
		return
	}
	id, err := sweepJobID()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}

	// The job outlives this request: its context descends from the
	// server's lifetime (cancelled by Drain), not the request's.
	jobCtx, jobCancel := context.WithCancel(s.ctx)
	job := newSweepJob(id, plan, clientKey(r), jobCancel)
	if err := s.storeSweepJob(job); err != nil {
		jobCancel()
		w.Header().Set("Retry-After", s.retryAfter)
		status := http.StatusTooManyRequests
		if errors.Is(err, errDraining) {
			status = http.StatusServiceUnavailable
		}
		s.writeError(w, status, err)
		return
	}

	// Journal the accepted sweep before the 202 leaves the server: once
	// the client sees the job id, the job survives kill -9.
	s.journalSubmitted(job, body)

	// The 202 body is the job as accepted, snapshotted before it can run.
	doc := job.statusDoc()
	// storeSweepJob already did sweepWG.Add(1) for this goroutine.
	go s.runSweepJob(jobCtx, job)

	w.Header().Set("Location", "/v1/sweeps/"+id)
	writeSweepStatus(w, http.StatusAccepted, doc)
}

// writeSweepStatus answers with an indented job status document.
func writeSweepStatus(w http.ResponseWriter, status int, doc *sweepStatusDoc) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// runSweepJob executes one job's plan in the background.
func (s *Server) runSweepJob(ctx context.Context, job *sweepJob) {
	defer s.sweepWG.Done()
	defer job.cancel()

	opts := hierclust.SweepOptions{
		ResultCache: serverResultCache{s},
		CellTimeout: s.evalTimeout,
		Acquire: func(ctx context.Context) (func(), error) {
			return s.admit(ctx, job.client, true)
		},
		OnCell: func(res hierclust.SweepCellResult) {
			line := s.cellLine(ctx, res)
			line.Scenario = res.Scenario
			switch {
			case line.Status != http.StatusOK:
				s.sweepCellsFail.Inc()
			case line.Cache == "hit":
				s.sweepCellHits.Inc()
			default:
				s.sweepCellsDone.Inc()
			}
			job.set(line)
		},
	}

	_, err := s.pipeline.RunPlannedSweep(ctx, job.plan, opts)
	switch {
	// A drain closes the server's Done, which the limiter's waiters see,
	// before it reaches ctx: the run can end on cells the limiter refused
	// while ctx is still live, so the server's ctx tells a drain apart.
	case s.ctx.Err() != nil && !errors.Is(context.Cause(ctx), context.Canceled):
		job.finish("cancelled", http.StatusServiceUnavailable, errDrainingRetry.Error())
		// Deliberately keeps its journal record: a drain is a restart
		// from the journal's point of view, so the next process resumes
		// this job where the result cache left off.
		return
	case err == nil:
		job.finish("completed", 0, "") // no unfilled lines remain
	case errors.Is(ctx.Err(), context.Canceled):
		job.finish("cancelled", statusClientClosed, errCancelled.Error())
	default:
		job.finish("failed", http.StatusInternalServerError, err.Error())
	}
	s.journalDone(job)
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	job := s.lookupSweepJob(r.PathValue("id"))
	if job == nil {
		s.writeError(w, http.StatusNotFound, errors.New("hierclust: unknown sweep job"))
		return
	}
	writeSweepStatus(w, http.StatusOK, job.statusDoc())
}

func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	job := s.lookupSweepJob(r.PathValue("id"))
	if job == nil {
		s.writeError(w, http.StatusNotFound, errors.New("hierclust: unknown sweep job"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Hierclust-Sweep-Cells", strconv.Itoa(len(job.plan.Cells)))
	w.Header().Set("X-Hierclust-Sweep-Dedup", strconv.FormatFloat(job.plan.DedupRatio(), 'f', 4, 64))
	w.WriteHeader(http.StatusOK)
	// Plan order, as cells land; finish sets every line, so the stream ends.
	job.stream(w, r)
}

func (s *Server) handleSweepDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job := s.lookupSweepJob(id)
	if job == nil {
		s.writeError(w, http.StatusNotFound, errors.New("hierclust: unknown sweep job"))
		return
	}
	if job.currentState() == "running" {
		// Cancel and report the (now terminating) job; the store keeps it
		// so the client can still read partial results.
		job.cancel()
		writeSweepStatus(w, http.StatusAccepted, job.statusDoc())
		return
	}
	s.sweepMu.Lock()
	s.forgetSweepJobLocked(id)
	s.sweepMu.Unlock()
	s.journalDone(job)
	w.WriteHeader(http.StatusNoContent)
}
