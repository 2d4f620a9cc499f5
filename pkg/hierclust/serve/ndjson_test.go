package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hierclust/pkg/hierclust"
)

// rawLines posts body to path (GET when body is empty) and returns the
// response's NDJSON lines as the server wrote them.
func rawLines(t *testing.T, url, body string) []string {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// evaluateCompact posts one scenario to /v1/evaluate and returns its answer
// in the compact form the result cache and the NDJSON lines carry.
func evaluateCompact(t *testing.T, url, doc, wantCache string) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/evaluate", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Hierclust-Cache") != wantCache {
		t.Fatalf("evaluate: status %d cache %q, want 200 %s: %s",
			resp.StatusCode, resp.Header.Get("X-Hierclust-Cache"), wantCache, body)
	}
	var out bytes.Buffer
	if err := json.Compact(&out, body); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// sweepStatus reads GET /v1/sweeps/{id}.
func sweepStatus(t *testing.T, url, id string) *sweepStatusDoc {
	t.Helper()
	resp, err := http.Get(url + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc sweepStatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

// checkLines compares streamed lines with the wanted ones byte for byte.
func checkLines(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestNDJSONLineBytes pins the bytes of both NDJSON streams: the key order,
// which keys a line omits, and the fill line of a cell that never ran. A
// batch line has no scenario key; a sweep line always has one.
func TestNDJSONLineBytes(t *testing.T) {
	// One worker runs a sweep's cells in plan order, one at a time.
	s := New(Options{MaxConcurrent: 1, Pipeline: hierclust.NewPipeline(hierclust.WithWorkers(1))})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	t.Run("batch", func(t *testing.T) {
		hit := batchScenario("nd-hit", "naive", 8)
		hitDoc := evaluateCompact(t, ts.URL, hit, "miss")
		computed := batchScenario("nd-computed", "hierarchical", 0)
		unbuildable := `{"name":"nd-fail","machine":{"model":"tsubame2"},"placement":{"ranks":99999,"procs_per_node":4},"trace":{"source":"synthetic"},"strategies":[{"kind":"hierarchical"}]}`
		got := rawLines(t, ts.URL+"/v1/evaluate-batch",
			"["+strings.Join([]string{`{"name":"nd-bad","machne":{}}`, computed, hit, unbuildable}, ",")+"]")
		computedDoc := evaluateCompact(t, ts.URL, computed, "hit")
		checkLines(t, got, []string{
			`{"index":0,"status":400,"error":"hierclust: decoding scenario: json: unknown field \"machne\""}`,
			`{"index":1,"status":200,"cache":"miss","result":` + computedDoc + `}`,
			`{"index":2,"status":200,"cache":"hit","result":` + hitDoc + `}`,
			`{"index":3,"status":422,"error":"topology: 99999 ranks at 4 per node need 25000 nodes; machine has 1408"}`,
		})
	})

	t.Run("sweep", func(t *testing.T) {
		// The first two cells are resident (a sweep cell and the hand-written
		// scenario of the same content share a result-cache entry); the third
		// waits for the one evaluation slot, which is held, until DELETE
		// cancels it, and the fourth is never started, so finish fills it.
		cell := func(name, strategy string) string {
			return `{"name":"` + name + `","machine":{"nodes":8},"placement":{"ranks":32,"procs_per_node":4},` +
				`"trace":{"source":"synthetic","iterations":10},"strategies":[` + strategy + `]}`
		}
		naive, hier := `{"kind":"naive","size":8}`, `{"kind":"hierarchical"}`
		doc0 := evaluateCompact(t, ts.URL, cell("nd-grid/s0", naive), "miss")
		doc1 := evaluateCompact(t, ts.URL, cell("nd-grid/s1", hier), "miss")

		adm, release := s.lim.acquire(context.Background(), "occupier", false)
		if adm != admitted {
			t.Fatal("could not occupy the evaluation slot")
		}
		defer release()
		job := submitSweep(t, ts.URL, `{"name":"nd","base":{"name":"nd-grid","machine":{"nodes":8},`+
			`"placement":{"ranks":32,"procs_per_node":4},"trace":{"source":"synthetic","iterations":10}},`+
			`"axes":{"strategies":[[`+naive+`],[`+hier+`],[{"kind":"size-guided","size":8}],[{"kind":"naive","size":4}]]}}`)
		for deadline := time.Now().Add(10 * time.Second); sweepStatus(t, ts.URL, job.ID).Cells.Cached < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the resident cells were never answered")
			}
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+job.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if final := pollSweep(t, ts.URL, job.ID); final.State != "cancelled" || final.Cells.Cached != 2 {
			t.Fatalf("after DELETE: %+v, want cancelled with 2 cached cells", final)
		}
		checkLines(t, rawLines(t, ts.URL+"/v1/sweeps/"+job.ID+"/results", ""), []string{
			`{"index":0,"scenario":"nd-grid/s0","status":200,"cache":"hit","result":` + doc0 + `}`,
			`{"index":1,"scenario":"nd-grid/s1","status":200,"cache":"hit","result":` + doc1 + `}`,
			`{"index":2,"scenario":"nd-grid/s2","status":499,"error":"hierclust: evaluation cancelled by the client"}`,
			`{"index":3,"scenario":"nd-grid/s3","status":499,"error":"hierclust: evaluation cancelled by the client"}`,
		})
	})
}
