package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"

	"hierclust/internal/pool"
)

// POST /v1/evaluate-batch accepts a JSON array of scenario documents and
// streams one NDJSON line per element, in input order, as each completes —
// line i is written the moment elements 0..i are all done, so a client
// reading the stream sees results appear while later elements are still
// evaluating. Elements are independent: a malformed or failing element
// produces an error line (with the status the single endpoint would have
// answered) and the rest of the batch proceeds — partial failure is a
// per-line fact, not a request-level one.

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
	body, ok := s.readBody(w, r, s.maxBatchBody)
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

	// Elements evaluate concurrently on a bounded pool; per-element
	// admission (result cache, limiter, 429 lines) happens inside
	// evaluateElement, so one batch competes for slots with every other
	// request rather than owning the server.
	lines := make([]BatchLine, len(raws))
	done := make([]chan struct{}, len(raws))
	for i := range done {
		done[i] = make(chan struct{})
	}
	go pool.Run(len(raws), s.lim.capacity(), nil, func(i, _ int) {
		lines[i] = s.evaluateElement(r, i, raws[i])
		close(done[i])
	})
	streamNDJSON(w, r, done, func(i int) any { return &lines[i] })
}

// evaluateElement runs one batch element through decode → cache →
// admission → pipeline and renders its line. It is a panic isolation
// boundary: a panicking element becomes its own 500 line and the rest of
// the batch proceeds (the worker goroutine must survive to drain the
// remaining indices).
func (s *Server) evaluateElement(r *http.Request, i int, raw json.RawMessage) (line BatchLine) {
	defer func() {
		if v := recover(); v != nil {
			id := s.reportPanic(v, debug.Stack())
			line = BatchLine{Index: i, Status: http.StatusInternalServerError, Error: incidentErr(id).Error()}
		}
	}()
	sc, status, err := decodeScenario(raw)
	if err != nil {
		return BatchLine{Index: i, Status: status, Error: err.Error()}
	}
	doc, cacheState, status, err := s.evaluate(r, sc)
	if err != nil {
		return BatchLine{Index: i, Status: status, Error: err.Error()}
	}
	return BatchLine{Index: i, Status: http.StatusOK, Cache: cacheState, Result: doc}
}
