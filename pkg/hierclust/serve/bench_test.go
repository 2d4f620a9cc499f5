package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hierclust/pkg/hierclust"
)

// BenchmarkEvaluate times one POST /v1/evaluate through ServeHTTP for each
// kind of body the handler tells apart:
//   - hit-canonical: a resident scenario as hierclust.EncodeScenario writes
//     it (every body serve-mix sends); it compacts to its cache key, so it
//     is answered without decoding;
//   - hit-reordered (keys sorted) and hit-versionless (the hand-written
//     document, no "version"): resident, but their compact forms are not
//     keys, so each pays a failed probe, decodes and then hits;
//   - miss: two scenarios alternating in a one-entry LRU, so every request
//     pays a failed probe, decodes and runs the pipeline.
func BenchmarkEvaluate(b *testing.B) {
	sc, err := hierclust.DecodeScenario([]byte(testScenario))
	if err != nil {
		b.Fatal(err)
	}
	canonical, err := hierclust.EncodeScenario(sc)
	if err != nil {
		b.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(canonical, &fields); err != nil {
		b.Fatal(err)
	}
	reordered, err := json.Marshal(fields)
	if err != nil {
		b.Fatal(err)
	}
	other := strings.Replace(testScenario, `"serve-test"`, `"serve-test-2"`, 1)
	for _, c := range []struct {
		name      string
		cacheSize int
		want      string
		bodies    []string
	}{
		{"hit-canonical", 4, "hit", []string{string(canonical)}},
		{"hit-reordered", 4, "hit", []string{string(reordered)}},
		{"hit-versionless", 4, "hit", []string{testScenario}},
		{"miss", 1, "miss", []string{testScenario, other}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New(Options{CacheSize: c.cacheSize})
			post := func(body string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
				return rec
			}
			for _, body := range c.bodies {
				post(body)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				rec := post(c.bodies[i%len(c.bodies)])
				if rec.Code != http.StatusOK || rec.Header().Get("X-Hierclust-Cache") != c.want {
					b.Fatalf("%d %q, want 200 %q", rec.Code, rec.Header().Get("X-Hierclust-Cache"), c.want)
				}
			}
		})
	}
}
