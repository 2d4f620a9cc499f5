package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"hierclust/internal/faultinject"
	"hierclust/internal/stage"
	"hierclust/pkg/hierclust"
)

// POST /v1/evaluate-batch accepts a JSON array of scenario documents and
// streams one NDJSON line per element, in input order, as each completes —
// line i is written the moment elements 0..i are all done, so a client
// reading the stream sees results appear while later elements are still
// evaluating. A batch is a sweep without axes (hierclust.PlanScenarios), so
// elements that agree on a placement, trace or clustering build it once,
// and cache labels follow the plan. A malformed or failing element produces
// an error line (with the status the single endpoint would have answered)
// and the rest of the batch proceeds.

func (s *Server) handleEvaluateBatch(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Hit("serve.evaluate"); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	body, ok := s.readBody(w, r, maxBatchBody)
	if !ok {
		return
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("hierclust: batch body must be a JSON array of scenarios: %w", err))
		return
	}
	if len(raws) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("hierclust: empty batch"))
		return
	}
	if len(raws) > s.maxBatch {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("hierclust: batch of %d scenarios exceeds the %d-element bound", len(raws), s.maxBatch))
		return
	}
	s.batchTotal.Add(uint64(len(raws)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Hierclust-Batch-Count", fmt.Sprint(len(raws)))
	w.WriteHeader(http.StatusOK)
	s.runBatch(r, raws).stream(w, r)
}

// runBatch decodes every element, plans the valid ones and runs the plan in
// the background, answering element i on line i of the returned table.
// Cells take interactive-tier slots one by one, so a batch competes with
// every other request rather than owning the server.
func (s *Server) runBatch(r *http.Request, raws []json.RawMessage) *lineTable {
	lines := newLineTable(len(raws))
	var scs []*hierclust.Scenario
	var elems []int // plan cell → element index
	for i, raw := range raws {
		t := stage.Enter(stage.Decode)
		sc, status, err := decodeScenario(raw)
		s.pipeline.Stages().Leave(r.Context(), stage.Decode, t)
		if err != nil {
			lines.set(CellLine{Index: i, Status: status, Error: err.Error()})
			continue
		}
		scs, elems = append(scs, sc), append(elems, i)
	}

	ctx, client := r.Context(), clientKey(r)
	go func() {
		plan, err := hierclust.PlanScenarios(scs)
		if err == nil {
			_, err = s.pipeline.RunPlannedSweep(ctx, plan, hierclust.SweepOptions{
				Workers:     s.lim.capacity(),
				ResultCache: serverResultCache{s},
				CellTimeout: s.evalTimeout,
				Acquire: func(ctx context.Context) (func(), error) {
					return s.admit(ctx, client, false)
				},
				OnCell: func(res hierclust.SweepCellResult) {
					line := s.cellLine(ctx, res)
					line.Index = elems[res.Index]
					lines.set(line)
				},
			})
		}
		// Every OnCell call has returned, so an unset line is a cell that
		// never ran: the plan failed, or the client went first.
		lines.mu.Lock()
		defer lines.mu.Unlock()
		lines.fillLocked(func(i int) CellLine {
			return s.cellLine(ctx, hierclust.SweepCellResult{Index: i, Err: err})
		})
	}()
	return lines
}

// CellLine is one NDJSON line of a /v1/evaluate-batch or a GET
// /v1/sweeps/{id}/results response. Result for a 200 line is byte-identical
// to the compact document POST /v1/evaluate caches for the same scenario.
type CellLine struct {
	// Index is the line's position: the element's in the batch array, the
	// cell's in plan (expansion) order.
	Index int `json:"index"`
	// Scenario is the expanded cell scenario's name; sweep lines only.
	Scenario string `json:"scenario,omitempty"`
	// Status is the HTTP status this element or cell would have received
	// from POST /v1/evaluate (200, 400 malformed element, 422, 429, 499
	// client gone or job cancelled, 500 recovered panic, 503 drained, 504
	// server deadline exceeded).
	Status int `json:"status"`
	// Cache reports which cache level answered a 200 line: "hit",
	// "trace-hit", or "miss" — the X-Hierclust-Cache values.
	Cache string `json:"cache,omitempty"`
	// Result is the evaluation document for Status 200.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure message for non-200 statuses.
	Error string `json:"error,omitempty"`
}

// cellLine is the NDJSON line of a cell run under ctx (the request's, or
// the sweep job's), its status ranked by cellStatus.
func (s *Server) cellLine(ctx context.Context, res hierclust.SweepCellResult) CellLine {
	line := CellLine{Index: res.Index}
	var err error
	if line.Status, err = s.cellStatus(ctx, res); err != nil {
		line.Error = err.Error()
	} else {
		line.Cache, line.Result = res.Cache, res.Doc
	}
	return line
}

// lineTable holds one NDJSON stream's lines, a batch's (by element) or a
// sweep job's (by plan cell). Line i is final once final[i] is closed: the
// first write to a line wins, and fillLocked writes every line still unset,
// so each stream ends.
type lineTable struct {
	mu                   sync.Mutex
	lines                []CellLine
	final                []chan struct{}
	done, cached, failed int // final lines; of them, 200 "hit" and non-200
}

func newLineTable(n int) *lineTable {
	t := &lineTable{lines: make([]CellLine, n), final: make([]chan struct{}, n)}
	for i := range t.final {
		t.final[i] = make(chan struct{})
	}
	return t
}

// set records line at its index unless that line is already final.
func (t *lineTable) set(line CellLine) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setLocked(line)
}

func (t *lineTable) setLocked(line CellLine) {
	i := line.Index
	select {
	case <-t.final[i]:
		return
	default:
	}
	t.lines[i] = line
	t.done++
	switch {
	case line.Status != http.StatusOK:
		t.failed++
	case line.Cache == "hit":
		t.cached++
	}
	close(t.final[i])
}

// fillLocked sets every line still unset to line(i); line is not asked for
// a final one.
func (t *lineTable) fillLocked(line func(i int) CellLine) {
	for i, final := range t.final {
		select {
		case <-final:
		default:
			t.setLocked(line(i))
		}
	}
}

// stream writes the lines strictly in index order, waiting for each to be
// final and flushing per line so clients see progress. A vanished client
// cancels r.Context(), which stops the writes.
func (t *lineTable) stream(w http.ResponseWriter, r *http.Request) {
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i, final := range t.final {
		select {
		case <-final:
		case <-r.Context().Done():
			return
		}
		// A final line is never written again, so it is read unlocked.
		if err := enc.Encode(&t.lines[i]); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
