package hierclust

import (
	"testing"
)

// DecodeScenario and DecodeSweep are hcserve's unauthenticated HTTP parse
// surface: every byte of every POST body flows through one of them before
// anything else looks at it. The fuzz targets below pin two properties:
// no input crashes the decoder, and anything the decoder accepts
// round-trips — it re-encodes, re-decodes, and produces a stable
// canonical cache key (the key the result cache and sweep journal both
// trust for identity). A key is itself a document: it decodes, and its
// scenario's key is the key again, which is what lets hcserve answer a body
// that compacts to a resident key without decoding it.

func FuzzDecodeScenario(f *testing.F) {
	for _, s := range BuiltinScenarios() {
		doc, err := EncodeScenario(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"name":"x"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":1} trailing`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeScenario(data)
		if err != nil {
			return // rejected input; only crashes are failures
		}
		key, err := s.CacheKey()
		if err != nil || key == "" {
			t.Fatalf("accepted scenario has no cache key: %v", err)
		}
		keyed, err := DecodeScenario([]byte(key))
		if err != nil {
			t.Fatalf("cache key %q does not decode: %v", key, err)
		}
		if again, err := keyed.CacheKey(); err != nil || again != key {
			t.Fatalf("decoded cache key re-keys as %q, want %q (%v)", again, key, err)
		}
		doc, err := EncodeScenario(s)
		if err != nil {
			t.Fatalf("accepted scenario does not re-encode: %v", err)
		}
		s2, err := DecodeScenario(doc)
		if err != nil {
			t.Fatalf("re-encoded scenario does not decode: %v", err)
		}
		key2, err := s2.CacheKey()
		if err != nil || key2 != key {
			t.Fatalf("cache key unstable across round trip: %q vs %q (%v)", key, key2, err)
		}
	})
}

func FuzzDecodeSweep(f *testing.F) {
	base := BuiltinScenarios()[0]
	baseDoc, err := EncodeScenario(base)
	if err != nil {
		f.Fatal(err)
	}
	sweepDoc := []byte(`{"version":1,"name":"fuzz-grid","base":` + string(baseDoc) +
		`,"axes":[{"field":"placement.nodes","values":[4,8]}]}`)
	f.Add(sweepDoc)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"base":{}}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Validate expands every cell, so bound the input: a few KiB of
		// JSON cannot describe a legitimate sweep large enough to matter,
		// but a hostile axes blow-up could stall the fuzzer.
		if len(data) > 4<<10 {
			return
		}
		sw, err := DecodeSweep(data)
		if err != nil {
			return
		}
		// DecodeSweep expands no cell; a bad cell is refused when the sweep
		// is planned, and only a valid sweep has a key and an encoding.
		if err := sw.Validate(); err != nil {
			if _, perr := PlanSweep(sw); perr == nil {
				t.Fatalf("PlanSweep accepted a sweep Validate refuses: %v", err)
			}
			return
		}
		key, err := sw.SweepKey()
		if err != nil || key == "" {
			t.Fatalf("accepted sweep has no sweep key: %v", err)
		}
		doc, err := EncodeSweep(sw)
		if err != nil {
			t.Fatalf("accepted sweep does not re-encode: %v", err)
		}
		sw2, err := DecodeSweep(doc)
		if err != nil {
			t.Fatalf("re-encoded sweep does not decode: %v", err)
		}
		key2, err := sw2.SweepKey()
		if err != nil || key2 != key {
			t.Fatalf("sweep key unstable across round trip: %q vs %q (%v)", key, key2, err)
		}
		if sw.CellCount() != sw2.CellCount() {
			t.Fatalf("cell count changed across round trip: %d vs %d", sw.CellCount(), sw2.CellCount())
		}
	})
}
