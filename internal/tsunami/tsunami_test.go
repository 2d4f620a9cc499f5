package tsunami

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"hierclust/internal/checkpoint"
	"hierclust/internal/hybrid"
	"hierclust/internal/simmpi"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

func smallParams(ranks int) Params {
	p := DefaultParams(ranks)
	p.NX, p.NY = 48, 48
	p.Source = Source{CX: 24, CY: 24, Amplitude: 2, Sigma: 4}
	return p
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := good
	bad.NY = 100 // not divisible by 4? 100/4=25, fine; use ranks mismatch
	bad.Ranks = 7
	if err := bad.Validate(); err == nil {
		t.Error("accepted NY not divisible by ranks")
	}
	bad = good
	bad.Dt = 100
	if err := bad.Validate(); err == nil {
		t.Error("accepted CFL violation")
	}
	bad = good
	bad.NX = 1
	if err := bad.Validate(); err == nil {
		t.Error("accepted tiny grid")
	}
	bad = good
	bad.Depth = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative depth")
	}
	if _, err := NewSolver(good, 99); err == nil {
		t.Error("accepted out-of-range rank")
	}
}

func TestMassConservationReflective(t *testing.T) {
	app, err := NewFTApp(smallParams(4))
	if err != nil {
		t.Fatal(err)
	}
	m0 := app.TotalMass()
	if err := app.RunSequential(100); err != nil {
		t.Fatal(err)
	}
	m1 := app.TotalMass()
	if rel := math.Abs(m1-m0) / math.Abs(m0); rel > 1e-9 {
		t.Errorf("mass drifted by %.3g relative (from %g to %g)", rel, m0, m1)
	}
}

func TestMassConservationPeriodic(t *testing.T) {
	p := smallParams(1)
	p.Boundary = Periodic
	app, err := NewFTApp(p)
	if err != nil {
		t.Fatal(err)
	}
	m0 := app.TotalMass()
	if err := app.RunSequential(50); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(app.TotalMass()-m0) / math.Abs(m0); rel > 1e-10 {
		t.Errorf("periodic mass drift %.3g", rel)
	}
}

func TestEnergyDissipates(t *testing.T) {
	// Lax–Friedrichs is dissipative: energy must never grow.
	app, err := NewFTApp(smallParams(4))
	if err != nil {
		t.Fatal(err)
	}
	prev := app.TotalEnergy()
	for i := 0; i < 20; i++ {
		if err := app.RunSequential(5); err != nil {
			t.Fatal(err)
		}
		e := app.TotalEnergy()
		if e > prev*(1+1e-12) {
			t.Fatalf("energy grew from %g to %g at step %d", prev, e, (i+1)*5)
		}
		prev = e
	}
}

func TestWavePropagatesOutward(t *testing.T) {
	p := smallParams(4)
	app, err := NewFTApp(p)
	if err != nil {
		t.Fatal(err)
	}
	centerRank := 2 // row 24 lives in slab 2 (rows 24..35)
	center0 := app.Solver(centerRank).Eta(0, 24)
	if err := app.RunSequential(30); err != nil {
		t.Fatal(err)
	}
	center1 := app.Solver(centerRank).Eta(0, 24)
	if center1 >= center0 {
		t.Errorf("central elevation did not decay: %g -> %g", center0, center1)
	}
	// Some wave must have reached the first slab (far from the source).
	var maxFar float64
	s0 := app.Solver(0)
	for j := 0; j < s0.Rows(); j++ {
		for i := 0; i < p.NX; i++ {
			if v := math.Abs(s0.Eta(j, i)); v > maxFar {
				maxFar = v
			}
		}
	}
	if maxFar == 0 {
		t.Error("no wave energy reached distant slabs after 30 steps")
	}
}

func TestDecompositionMatchesSingleRank(t *testing.T) {
	// The decomposed run must reproduce the single-slab run exactly:
	// ghost exchange is numerically transparent.
	whole, err := NewFTApp(smallParams(1))
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewFTApp(smallParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.RunSequential(40); err != nil {
		t.Fatal(err)
	}
	if err := split.RunSequential(40); err != nil {
		t.Fatal(err)
	}
	p := smallParams(4)
	rows := p.NY / 4
	for r := 0; r < 4; r++ {
		for j := 0; j < rows; j++ {
			for i := 0; i < p.NX; i++ {
				a := split.Solver(r).Eta(j, i)
				b := whole.Solver(0).Eta(r*rows+j, i)
				if a != b {
					t.Fatalf("eta mismatch at rank %d row %d col %d: %g != %g", r, j, i, a, b)
				}
			}
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	app, err := NewFTApp(smallParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.RunSequential(10); err != nil {
		t.Fatal(err)
	}
	snap, err := app.Snapshot(2)
	if err != nil {
		t.Fatal(err)
	}
	// run further, then restore and compare a fresh run from the snapshot
	if err := app.RunSequential(5); err != nil {
		t.Fatal(err)
	}
	if err := app.Restore(2, snap); err != nil {
		t.Fatal(err)
	}
	s := app.Solver(2)
	if s.Iter() != 10 {
		t.Errorf("restored iter = %d, want 10", s.Iter())
	}
	if err := app.Restore(2, snap[:5]); err == nil {
		t.Error("accepted truncated snapshot")
	}
}

func TestFTAppUnderHybridProtocolWithFailure(t *testing.T) {
	// End-to-end: the real application under the real protocol with a
	// node failure must match the failure-free field bit-for-bit.
	p := smallParams(8)
	mach := &topology.Machine{
		Name: "t", Nodes: 4,
		SSDWriteBps: 1e9, SSDReadBps: 1e9, PFSWriteBps: 1e9, PFSReadBps: 1e9, NetBps: 1e9,
	}
	place, err := topology.Block(mach, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]int32, 8)
	for r := range clusters {
		clusters[r] = int32(r / 4) // 2 clusters of 4 ranks (2 nodes each)
	}
	groups := [][]topology.Rank{
		{0, 2}, {1, 3}, // cluster 0: transversal over nodes 0,1
		{4, 6}, {5, 7}, // cluster 1: transversal over nodes 2,3
	}
	app, err := NewFTApp(p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := hybrid.NewRunner(hybrid.Config{
		Placement:       place,
		Clusters:        clusters,
		Groups:          groups,
		CheckpointEvery: 5,
		Level:           checkpoint.L3Encoded,
	}, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(20, map[int][]topology.NodeID{12: {1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].RestartedRanks != 4 {
		t.Fatalf("failure handling: %+v", rep.Failures)
	}

	ref, err := NewFTApp(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSequential(20); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		for j := 0; j < app.Solver(r).Rows(); j++ {
			for i := 0; i < p.NX; i++ {
				if app.Solver(r).Eta(j, i) != ref.Solver(r).Eta(j, i) {
					t.Fatalf("rank %d cell (%d,%d) diverged after recovery", r, j, i)
				}
			}
		}
	}
}

func TestRunTracedProducesDoubleDiagonal(t *testing.T) {
	p := smallParams(8)
	rec := trace.NewRecorder(8)
	masses, err := RunTraced(TracedOptions{Params: p, Iterations: 10, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(masses) != 8 {
		t.Fatalf("masses = %v", masses)
	}
	m := bytesOf(rec.Freeze())
	// Ghost traffic dominates: for every adjacent pair both directions
	// must carry the boundary rows; beyond ±1 only the Allgather init.
	ghostBytes := int64(3 * p.NX * 8 * 10)
	for r := 0; r+1 < 8; r++ {
		if m(r, r+1) < ghostBytes {
			t.Errorf("traffic %d->%d = %d, want >= %d", r, r+1, m(r, r+1), ghostBytes)
		}
		if m(r+1, r) < ghostBytes {
			t.Errorf("traffic %d->%d = %d, want >= %d", r+1, r, m(r+1, r), ghostBytes)
		}
	}
	// distance >1 pairs must carry only tiny init traffic
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d || s == d+1 || s == d-1 {
				continue
			}
			if m(s, d) > 1000 {
				t.Errorf("unexpected heavy traffic %d->%d: %d bytes", s, d, m(s, d))
			}
		}
	}
}

// bytesOf reads a trace's byte cells.
func bytesOf(c *trace.CSR) func(src, dst int) int64 {
	return func(src, dst int) int64 {
		b, _ := c.At(src, dst)
		return b
	}
}

func TestRunTracedMatchesSequentialMass(t *testing.T) {
	p := smallParams(4)
	masses, err := RunTraced(TracedOptions{Params: p, Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewFTApp(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.RunSequential(15); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if math.Abs(masses[r]-seq.Solver(r).Mass()) > 1e-6 {
			t.Errorf("rank %d traced mass %g != sequential %g", r, masses[r], seq.Solver(r).Mass())
		}
	}
}

func TestRunTracedWithEncoders(t *testing.T) {
	p := smallParams(8)
	// 8 app ranks, 2 per node → 4 nodes → world = 8 + 4 encoders = 12.
	world := 12
	rec := trace.NewRecorder(world)
	_, err := RunTraced(TracedOptions{
		Params: p, Iterations: 10,
		ProcsPerNode: 2, EncoderRanks: true,
		CheckpointEvery: 5, CheckpointBytes: 4096,
		Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := bytesOf(rec.Freeze())
	// Encoder world ranks are 0, 3, 6, 9 (stride ProcsPerNode+1).
	// Application ranks must have sent checkpoints to their encoder.
	if m(1, 0) < 2*4096 { // app world-rank 1 -> encoder 0, 2 rounds
		t.Errorf("app->encoder traffic = %d, want >= %d", m(1, 0), 2*4096)
	}
	// Encoders exchange parity among themselves (4-node group 0..3).
	if m(0, 3) < 2*4096 {
		t.Errorf("encoder->encoder traffic = %d, want >= %d", m(0, 3), 2*4096)
	}
	// The app double diagonal sits at world ranks skipping encoders:
	// app 0 (world 1) ↔ app 1 (world 2).
	if m(1, 2) == 0 || m(2, 1) == 0 {
		t.Error("application diagonal missing in encoder layout")
	}
}

func TestRunTracedValidation(t *testing.T) {
	p := smallParams(4)
	if _, err := RunTraced(TracedOptions{Params: p, Iterations: 0}); err == nil {
		t.Error("accepted 0 iterations")
	}
	bad := TracedOptions{Params: p, Iterations: 5, EncoderRanks: true}
	if _, err := RunTraced(bad); err == nil {
		t.Error("accepted EncoderRanks without ProcsPerNode")
	}
	bad.ProcsPerNode = 3 // 4 ranks not divisible by 3
	if _, err := RunTraced(bad); err == nil {
		t.Error("accepted indivisible ProcsPerNode")
	}
}

func TestTracedDeterminism(t *testing.T) {
	p := smallParams(4)
	a, err := RunTraced(TracedOptions{Params: p, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTraced(TracedOptions{Params: p, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("nondeterministic mass at rank %d: %g != %g", r, a[r], b[r])
		}
	}
}

// hctr records a traced execution into a world-sized matrix and returns
// its HCTR serialization.
func hctr(t *testing.T, o TracedOptions, world int, run func(TracedOptions) error) []byte {
	t.Helper()
	rec := trace.NewRecorder(world)
	o.Tracer = rec
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.Freeze().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Schedule records the trace a concurrent run of the solver on simmpi
// records, byte for byte: with and without encoders, at 2 and 3 ranks, at
// power-of-two and other world sizes (both Allgather algorithms), with
// encoder groups of 4 nodes and a trailing short group, with rounds that
// do not divide the iterations, and with encoders but no checkpoints.
func TestScheduleMatchesTracedRun(t *testing.T) {
	ckpt := func(ranks, ppn, every int) TracedOptions {
		return TracedOptions{Params: TraceParams(ranks), Iterations: 10, ProcsPerNode: ppn,
			EncoderRanks: true, CheckpointEvery: every, CheckpointBytes: 4096}
	}
	shapes := []struct {
		world int
		o     TracedOptions
	}{
		{2, TracedOptions{Params: TraceParams(2), Iterations: 5}},
		{3, TracedOptions{Params: TraceParams(3), Iterations: 5}},
		{64, TracedOptions{Params: TraceParams(64), Iterations: 7}},
		{100, TracedOptions{Params: TraceParams(100), Iterations: 4}},
		{30, ckpt(24, 4, 3)},    // 6 nodes: a group of 4 and one of 2
		{136, ckpt(128, 16, 5)}, // 8 nodes: the paper's 16 per node
		{8, ckpt(6, 3, 2)},      // encoders in a power-of-two world
		{20, ckpt(16, 4, 0)},    // encoders that only join the Allgather
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("ranks=%d/world=%d/ppn=%d/every=%d", sh.o.Params.Ranks, sh.world, sh.o.ProcsPerNode, sh.o.CheckpointEvery)
		t.Run(name, func(t *testing.T) {
			ran := hctr(t, sh.o, sh.world, func(o TracedOptions) error { _, err := RunTraced(o); return err })
			sched := hctr(t, sh.o, sh.world, Schedule)
			if !bytes.Equal(sched, ran) {
				t.Errorf("Schedule's HCTR (%d bytes) differs from RunTraced's (%d bytes)", len(sched), len(ran))
			}
		})
	}
}

// Schedule refuses what RunTraced refuses, and a negative checkpoint
// payload, which RunTraced cannot even allocate; a nil Tracer records
// nothing and is not an error.
func TestScheduleValidation(t *testing.T) {
	p := smallParams(4)
	bad := p
	bad.Ranks = 7
	for name, o := range map[string]TracedOptions{
		"invalid params":       {Params: bad, Iterations: 5},
		"zero iterations":      {Params: p, Iterations: 0},
		"encoders without ppn": {Params: p, Iterations: 5, EncoderRanks: true},
		"indivisible ppn":      {Params: p, Iterations: 5, EncoderRanks: true, ProcsPerNode: 3},
		"negative checkpoint":  {Params: p, Iterations: 5, EncoderRanks: true, ProcsPerNode: 2, CheckpointEvery: 1, CheckpointBytes: -1},
	} {
		if err := Schedule(o); err == nil {
			t.Errorf("%s: Schedule accepted %+v", name, o)
		}
	}
	if err := Schedule(TracedOptions{Params: p, Iterations: 5}); err != nil {
		t.Errorf("nil Tracer: %v", err)
	}
}

var _ simmpi.Tracer = (*trace.Recorder)(nil)
