package hierclust

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hierclust/internal/faultinject"
	"hierclust/internal/racedetect"
	"hierclust/internal/trace"
)

// traceScenario returns a small tsunami-traced scenario; strategies vary by
// name so result-level identity differs while the trace key is shared.
func traceScenario(name, kind string) *Scenario {
	return &Scenario{
		Name:       name,
		Machine:    MachineSpec{Nodes: 16},
		Placement:  PlacementSpec{Policy: "block", Ranks: 64, ProcsPerNode: 4},
		Trace:      TraceSpec{Source: "tsunami", Iterations: 5},
		Strategies: []StrategySpec{{Kind: kind}},
	}
}

func TestTraceKeySharedAcrossStrategies(t *testing.T) {
	a := traceScenario("a", "naive")
	a.Strategies[0].Size = 8
	b := traceScenario("b", "hierarchical")
	ka, oka := a.TraceKey()
	kb, okb := b.TraceKey()
	if !oka || !okb {
		t.Fatal("tsunami scenarios must be cacheable")
	}
	if ka != kb {
		t.Fatalf("scenarios differing only in name/strategies got different trace keys:\n%s\n%s", ka, kb)
	}
}

func TestTraceKeyResolvesDefaults(t *testing.T) {
	// tsunami: omitted iterations means 20, so explicit 20 shares the key.
	imp := traceScenario("imp", "naive")
	imp.Strategies[0].Size = 8
	imp.Trace.Iterations = 0
	exp := traceScenario("exp", "naive")
	exp.Strategies[0].Size = 8
	exp.Trace.Iterations = 20
	ki, _ := imp.TraceKey()
	ke, _ := exp.TraceKey()
	if ki != ke {
		t.Fatalf("implicit and explicit default iterations differ:\n%s\n%s", ki, ke)
	}

	// synthetic stencil2d: omitted width resolves to procs_per_node.
	syn := &Scenario{
		Name:       "s",
		Placement:  PlacementSpec{Ranks: 64, ProcsPerNode: 4},
		Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d"},
		Strategies: []StrategySpec{{Kind: "hierarchical"}},
	}
	synW := &Scenario{
		Name:       "s",
		Placement:  PlacementSpec{Ranks: 64, ProcsPerNode: 4},
		Trace:      TraceSpec{Source: "synthetic", Pattern: "stencil2d", Width: 4},
		Strategies: []StrategySpec{{Kind: "hierarchical"}},
	}
	k1, _ := syn.TraceKey()
	k2, _ := synW.TraceKey()
	if k1 != k2 {
		t.Fatalf("derived and explicit width differ:\n%s\n%s", k1, k2)
	}

	// Different ranks must split the key.
	syn2 := *syn
	syn2.Placement.Ranks = 128
	k3, _ := syn2.TraceKey()
	if k1 == k3 {
		t.Fatal("different rank counts share a trace key")
	}
}

func TestTraceKeyFileNotCacheable(t *testing.T) {
	s := &Scenario{
		Name:       "f",
		Placement:  PlacementSpec{Ranks: 64, ProcsPerNode: 4},
		Trace:      TraceSpec{Source: "file", Path: "x.hctr"},
		Strategies: []StrategySpec{{Kind: "hierarchical"}},
	}
	if _, ok := s.TraceKey(); ok {
		t.Fatal("file source must not be cacheable")
	}
}

func TestMemoryTraceCacheLRU(t *testing.T) {
	c := NewMemoryTraceCache(2)
	put := func(key string, comm Comm) {
		t.Helper()
		e, build := c.lookup(key)
		if !build {
			t.Fatalf("lookup of absent key %q did not make its caller the builder", key)
		}
		e.comm = comm
		c.publish(key, e)
	}
	ta, _ := trace.Synthetic(8, SyntheticOptions{})
	tb, _ := trace.Synthetic(16, SyntheticOptions{})
	tc2, _ := trace.Synthetic(32, SyntheticOptions{})
	put("a", ta)
	put("b", tb)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	put("c", tc2)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	got, ok := c.Get("a")
	if !ok || got.Ranks() != 8 {
		t.Fatalf("a lost or wrong: %v", ok)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	if e, build := c.lookup("a"); build || e.comm != Comm(ta) {
		t.Fatal("lookup of a resident key did not return its trace")
	}
}

// A pending entry is in the table, so it joins lookups, counts in Len and
// evicts like a finished one, but Get never returns it; a failed build
// leaves the table, so the next lookup builds again.
func TestMemoryTraceCachePendingEntry(t *testing.T) {
	c := NewMemoryTraceCache(2)
	e, build := c.lookup("k")
	if !build {
		t.Fatal("first lookup is not the builder")
	}
	if joined, again := c.lookup("k"); again || joined != e {
		t.Fatal("second lookup did not join the pending entry")
	}
	if _, ok := c.Get("k"); ok || c.Len() != 1 {
		t.Fatalf("Get returned an unfinished trace, or Len = %d != 1", c.Len())
	}
	e.err = errors.New("build failed")
	c.publish("k", e)
	if _, ok := c.Get("k"); ok || c.Len() != 0 {
		t.Fatalf("a failed build stayed in the table (Len %d)", c.Len())
	}
	if _, build := c.lookup("k"); !build {
		t.Fatal("the lookup after a failed build did not build again")
	}
}

// TestPipelineTraceCacheHit runs two scenarios sharing one tsunami trace:
// the second must be served from the cache (its cell label is trace-hit)
// and render the bytes an uncached evaluation renders.
func TestPipelineTraceCacheHit(t *testing.T) {
	cache := NewMemoryTraceCache(4)
	pl := NewPipeline(WithWorkers(1), WithTraceCache(cache))

	first, _ := pl.RunCell(context.Background(), traceScenario("first", "hierarchical"), SweepOptions{})
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Cache != "miss" {
		t.Fatalf("first cell label = %q, want miss", first.Cache)
	}

	sc2 := traceScenario("second", "naive")
	sc2.Strategies[0].Size = 8
	second, _ := pl.RunCell(context.Background(), sc2, SweepOptions{})
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if second.Cache != "trace-hit" {
		t.Fatalf("second cell label = %q, want trace-hit", second.Cache)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache holds %d traces, want the one both cells used", n)
	}

	// The cached-trace result matches an uncached evaluation exactly.
	ref, err := NewPipeline(WithWorkers(1)).Run(context.Background(), sc2)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(ref); !bytes.Equal(second.Doc, want) {
		t.Fatalf("cached-trace document differs from an uncached run:\n%s\nvs\n%s", second.Doc, want)
	}
}

// A recorded trace is one Go type and one fold wherever it comes from: the
// tsunami scenario's Comm is a *trace.CSR when built and when the memory
// cache hands it back, and the rendered result is byte-identical on both.
func TestTsunamiTraceIsCSROnMissAndHits(t *testing.T) {
	sc := traceScenario("tsunami", "hierarchical")
	key, _ := sc.TraceKey()
	run := func(cache *MemoryTraceCache, want string) []byte {
		t.Helper()
		res, _ := NewPipeline(WithWorkers(1), WithTraceCache(cache)).RunCell(context.Background(), sc, SweepOptions{})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Cache != want {
			t.Fatalf("cell label %q, want %q", res.Cache, want)
		}
		comm, ok := cache.Get(key)
		if _, isCSR := comm.(*trace.CSR); !ok || !isCSR {
			t.Fatalf("after a %s the cache holds %T (present %v), want *trace.CSR", want, comm, ok)
		}
		return res.Doc
	}
	mem := NewMemoryTraceCache(2)
	miss := run(mem, "miss") // mem now holds the very value the miss evaluated
	if hit := run(mem, "trace-hit"); !bytes.Equal(hit, miss) {
		t.Errorf("memory hit renders differently from the miss:\n%s\n%s", hit, miss)
	}
}

// Only a traced application run enters the trace cache: 64 distinct
// synthetic scenarios through a 64-entry memory cache (and a Trace of one)
// neither look it up nor evict the tsunami trace built before them, so the
// next tsunami request is a trace-hit.
func TestSyntheticTracesBypassTraceCache(t *testing.T) {
	ctx := context.Background()
	mem := NewMemoryTraceCache(64)
	pl := NewPipeline(WithWorkers(1), WithTraceCache(mem))
	synthetic := func(i int) *Scenario {
		sc := traceScenario(fmt.Sprintf("synthetic/%d", i), "hierarchical")
		sc.Trace = TraceSpec{Source: "synthetic", Iterations: 1 + i}
		return sc
	}
	cell := func(sc *Scenario, want string) {
		t.Helper()
		if res, _ := pl.RunCell(ctx, sc, SweepOptions{}); res.Err != nil || res.Cache != want {
			t.Fatalf("%s: label %q (%v), want %q", sc.Name, res.Cache, res.Err, want)
		}
	}
	cell(traceScenario("tsunami/0", "hierarchical"), "miss")
	for i := 0; i < 64; i++ {
		cell(synthetic(i), "miss")
	}
	cell(traceScenario("tsunami/1", "hierarchical"), "trace-hit")
	// Trace, which scores nothing, needs no strategy and builds a synthetic
	// source inline too; a placement the machine cannot hold is an error.
	sc := synthetic(0)
	sc.Strategies = nil
	if c, p, err := pl.Trace(ctx, sc); err != nil || p.NumRanks() != 64 {
		t.Fatalf("Trace of a synthetic source: %v", err)
	} else if _, ok := c.(*trace.Stencil); !ok {
		t.Fatalf("Trace of a synthetic source = %T, want the implicit stencil", c)
	}
	sc.Machine.Nodes = 2
	if _, _, err := pl.Trace(ctx, sc); err == nil {
		t.Fatal("Trace placed 64 ranks at 4 per node on 2 nodes")
	}
	// The labels above are the one miss and the one hit; a lookup inserts an
	// entry, so one entry means no synthetic source looked the cache up.
	if n := mem.Len(); n != 1 {
		t.Fatalf("memory cache holds %d entries, want the tsunami trace alone", n)
	}
}

// TestPipelineJoinsInflightBuild pins the in-flight join: a Run (or a
// Trace) that finds the same trace mid-build in the cache waits for that
// build and reports a hit, never starting a second application run, and a
// waiter whose context ends leaves without waiting for the build.
func TestPipelineJoinsInflightBuild(t *testing.T) {
	defer faultinject.DisarmAll()
	cache := NewMemoryTraceCache(4)
	pl := NewPipeline(WithWorkers(1), WithTraceCache(cache))
	sc := traceScenario("join", "hierarchical")
	key, ok := sc.TraceKey()
	if !ok {
		t.Fatal("scenario not cacheable")
	}
	// startBuild runs sc's cell with its trace build held open by the build's
	// fault point, and returns once the build's pending entry is in the table.
	startBuild := func(sc *Scenario, hold time.Duration) <-chan SweepCellResult {
		t.Helper()
		faultinject.Arm("pipeline.trace.build", faultinject.Fault{Kind: faultinject.KindLatency, Delay: hold})
		entries := cache.Len()
		built := make(chan SweepCellResult, 1)
		go func() {
			res, _ := pl.RunCell(context.Background(), sc, SweepOptions{})
			built <- res
		}()
		for deadline := time.Now().Add(5 * time.Second); cache.Len() == entries; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the build never entered the cache")
			}
		}
		return built
	}

	built := startBuild(sc, 300*time.Millisecond)
	if _, ok := cache.Get(key); ok {
		t.Fatal("Get returned a trace still being built")
	}
	joinSc := traceScenario("join-2", "naive")
	joinSc.Strategies[0].Size = 8
	got := make(chan SweepCellResult, 1)
	go func() {
		res, _ := pl.RunCell(context.Background(), joinSc, SweepOptions{})
		got <- res
	}()
	traced := make(chan Comm, 1)
	go func() {
		c, p, err := pl.Trace(context.Background(), sc)
		if err != nil || p.NumRanks() != 64 {
			t.Errorf("Trace joining the in-flight build: %v", err)
		}
		traced <- c
	}()
	select {
	case o := <-got:
		t.Fatalf("RunCell completed without waiting for the in-flight build: %+v", o)
	case <-traced:
		t.Fatal("Trace completed without waiting for the in-flight build")
	case <-time.After(50 * time.Millisecond):
	}

	if b := <-built; b.Err != nil || b.Cache != "miss" {
		t.Fatalf("builder: label %q (%v), want miss", b.Cache, b.Err)
	}
	comm, ok := cache.Get(key)
	if !ok {
		t.Fatal("the finished build is not in the cache")
	}
	o := <-got
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Cache != "trace-hit" {
		t.Fatalf("joined cell label = %q, want trace-hit", o.Cache)
	}
	var res Result
	if err := json.Unmarshal(o.Doc, &res); err != nil || res.TotalBytes != comm.TotalBytes() {
		t.Fatalf("joined cell did not use the in-flight build's trace (%v)", err)
	}
	if c := <-traced; c != comm {
		t.Fatal("joined Trace did not return the in-flight build's trace")
	}
	if n := faultinject.Triggered("pipeline.trace.build"); n != 1 {
		t.Fatalf("%d trace builds of one key, want 1", n)
	}

	// Cancellation releases a waiter blocked on an in-flight build.
	slow := traceScenario("join-slow", "hierarchical")
	slow.Trace.Iterations = 6 // a key of its own
	built = startBuild(slow, 500*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 2)
	go func() {
		_, err := pl.Run(ctx, slow)
		errCh <- err
	}()
	go func() {
		_, _, err := pl.Trace(ctx, slow)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	for range 2 {
		if err := <-errCh; err != context.Canceled {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	}
	select {
	case <-built:
		t.Error("the cancelled waiters returned only once the build had finished")
	default:
	}
	if b := <-built; b.Err != nil {
		t.Fatal(b.Err)
	}
}

// TestPipelineConcurrentSharedTrace stresses the cache's in-flight join
// under real concurrency, Run and Trace callers mixed; every call must
// succeed and agree on the trace, and the Trace callers get the one build.
func TestPipelineConcurrentSharedTrace(t *testing.T) {
	cache := NewMemoryTraceCache(4)
	pl := NewPipeline(WithWorkers(1), WithTraceCache(cache))
	const n = 6
	results := make([]*Result, n)
	comms := make([]Comm, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sc := traceScenario("conc", "hierarchical"); i%2 == 0 {
				results[i], errs[i] = pl.Run(context.Background(), sc)
			} else {
				comms[i], _, errs[i] = pl.Trace(context.Background(), sc)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if i%2 == 0 && results[i].TotalBytes != results[0].TotalBytes {
			t.Fatal("concurrent runs disagree on the shared trace")
		}
	}
	key, _ := traceScenario("conc", "hierarchical").TraceKey()
	c, _ := cache.Get(key)
	if _, ok := c.(*CSR); !ok || results[0].TotalBytes != c.TotalBytes() {
		t.Fatalf("cached trace %T does not back the runs", c)
	}
	for i := 1; i < n; i += 2 {
		if comms[i] != c {
			t.Fatalf("Trace caller %d got a trace other than the one cached", i)
		}
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache entries = %d, want 1", n)
	}
}

// TestTraceKeyMatchesResolvedSpec pins the single-source property of the
// trace defaults: for every built-in scenario, across every combination of
// omitted, explicit-default and non-default trace parameters, two variants
// share a TraceKey exactly when their resolved trace specs — all buildTrace
// consumes — are identical. A default that drifted between the key and the
// build would make two different traces share a cache entry.
func TestTraceKeyMatchesResolvedSpec(t *testing.T) {
	for _, base := range BuiltinScenarios() {
		ppn := base.Placement.ProcsPerNode
		var variants []*Scenario
		add := func(tr TraceSpec) {
			sc := *base
			sc.Trace = tr
			if err := sc.Validate(); err != nil {
				t.Fatalf("%s: variant %+v invalid: %v", base.Name, tr, err)
			}
			variants = append(variants, &sc)
		}
		switch base.Trace.Source {
		case "tsunami":
			for _, iters := range []int{0, 20, 7} { // omitted, the default spelled out, other
				add(TraceSpec{Source: "tsunami", Iterations: iters})
			}
		case "synthetic":
			shapes := []TraceSpec{
				{}, {Pattern: "stencil1d"},
				{Pattern: "stencil2d"}, {Pattern: "stencil2d", Width: ppn}, {Pattern: "stencil2d", Width: 2 * ppn},
			}
			for _, iters := range []int{0, 100, 7} {
				for _, bpm := range []int64{0, 1536, 64} {
					for _, shape := range shapes {
						shape.Source, shape.Iterations, shape.BytesPerMsg = "synthetic", iters, bpm
						add(shape)
					}
				}
			}
		default:
			if _, ok := base.TraceKey(); ok {
				t.Errorf("%s: source %q must not be cacheable", base.Name, base.Trace.Source)
			}
			continue
		}
		add(base.Trace)
		distinct := map[string]bool{}
		for _, a := range variants {
			ka, ok := a.TraceKey()
			if !ok {
				t.Fatalf("%s: variant %+v not cacheable", base.Name, a.Trace)
			}
			distinct[ka] = true
			for _, b := range variants {
				kb, _ := b.TraceKey()
				if sameKey, sameSpec := ka == kb, a.resolvedTrace() == b.resolvedTrace(); sameKey != sameSpec {
					t.Errorf("%s: %+v vs %+v: same key = %v but same resolved spec = %v\n%s\n%s",
						base.Name, a.Trace, b.Trace, sameKey, sameSpec, ka, kb)
				}
			}
		}
		// The omitted and spelled-out default forms must actually collapse.
		if want := map[string]int{"tsunami": 2, "synthetic": 2 * 2 * 3}[base.Trace.Source]; len(distinct) > want+1 {
			t.Errorf("%s: %d distinct keys over %d variants, want at most %d (+1 for the scenario's own spec)",
				base.Name, len(distinct), len(variants), want)
		}
	}
}

// A trace-hit reads its built cache entry without waiting, so it never asks
// the caller's context for its Done channel, which a request context makes
// on first call: the hit costs the object it cost before the cache was also
// the table of builds in flight.
func TestTraceHitMakesNoDoneChannel(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	pl := NewPipeline(WithWorkers(1), WithTraceCache(NewMemoryTraceCache(4)))
	sc := traceScenario("hit-allocs", "naive")
	sc.Strategies[0].Size = 8
	if _, _, err := pl.Trace(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	hit := func(askDone bool) float64 {
		return testing.AllocsPerRun(20, func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if askDone {
				ctx.Done()
			}
			if res, _ := pl.RunCell(ctx, sc, SweepOptions{}); res.Err != nil || res.Cache != "trace-hit" {
				t.Fatalf("label %q (%v), want trace-hit", res.Cache, res.Err)
			}
		})
	}
	if fresh, asked := hit(false), hit(true); fresh != asked-1 {
		t.Fatalf("a trace-hit allocates %v objects under a fresh context, %v once its Done channel exists; want one fewer", fresh, asked)
	}
}
