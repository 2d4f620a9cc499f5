package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

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

// BatchLine is one NDJSON line of a /v1/evaluate-batch response.
type BatchLine struct {
	// Index is the element's position in the request array.
	Index int `json:"index"`
	// Status is the HTTP status this element would have received from
	// POST /v1/evaluate (200, 400, 422, 429, 499, 500 recovered panic,
	// 503, 504 server deadline exceeded).
	Status int `json:"status"`
	// Cache reports which cache level answered a successful element:
	// "hit", "trace-hit", or "miss" — the X-Hierclust-Cache values.
	Cache string `json:"cache,omitempty"`
	// Result is the evaluation document for Status 200.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure message for non-200 statuses.
	Error string `json:"error,omitempty"`
}

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
	lines, done := s.runBatch(r, raws)
	streamNDJSON(w, r, done, func(i int) any { return &lines[i] })
}

// runBatch decodes every element, plans the valid ones and runs the plan in
// the background; line i is final once done[i] is closed, and every channel
// closes. Cells take interactive-tier slots one by one, so a batch competes
// with every other request rather than owning the server.
func (s *Server) runBatch(r *http.Request, raws []json.RawMessage) ([]BatchLine, []chan struct{}) {
	lines := make([]BatchLine, len(raws))
	done := make([]chan struct{}, len(raws))
	var scs []*hierclust.Scenario
	var elems []int // plan cell → element index
	for i, raw := range raws {
		done[i] = make(chan struct{})
		t := stage.Enter(stage.Decode)
		sc, status, err := decodeScenario(raw)
		s.pipeline.Stages().Leave(r.Context(), stage.Decode, t)
		if err != nil {
			lines[i] = BatchLine{Index: i, Status: status, Error: err.Error()}
			close(done[i])
			continue
		}
		scs, elems = append(scs, sc), append(elems, i)
	}

	ctx, client := r.Context(), clientKey(r)
	setLine := func(res hierclust.SweepCellResult) {
		i := elems[res.Index]
		line := BatchLine{Index: i}
		var err error
		if line.Status, err = s.cellStatus(ctx, res); err != nil {
			line.Error = err.Error()
		} else {
			line.Cache, line.Result = res.Cache, res.Doc
		}
		lines[i] = line
		close(done[i])
	}
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
				OnCell: setLine,
			})
		}
		// Every OnCell call has returned, so an open channel is a cell that
		// never ran: the plan failed, or the client went first.
		for k, i := range elems {
			select {
			case <-done[i]:
			default:
				setLine(hierclust.SweepCellResult{Index: k, Err: err})
			}
		}
	}()
	return lines, done
}
