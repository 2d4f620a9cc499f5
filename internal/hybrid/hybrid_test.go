package hybrid

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"hierclust/internal/checkpoint"
	"hierclust/internal/topology"
)

// toyApp is a deterministic 1-D neighbor-exchange application: each rank
// holds a uint64 state, sends it to both neighbors every iteration, and
// folds received values in with a non-commutative-over-time mix. It is
// send-deterministic, so it satisfies the protocol's assumptions.
type toyApp struct {
	n     int
	state []uint64
	iter  []int
}

func newToyApp(n int) *toyApp {
	a := &toyApp{n: n, state: make([]uint64, n), iter: make([]int, n)}
	for r := range a.state {
		a.state[r] = uint64(r + 1)
	}
	return a
}

func (a *toyApp) Produce(rank, iter int) ([]Message, error) {
	if a.iter[rank] != iter {
		return nil, fmt.Errorf("toy: rank %d asked to produce iter %d while at %d", rank, iter, a.iter[rank])
	}
	var out []Message
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], a.state[rank])
	if rank > 0 {
		out = append(out, Message{Dest: rank - 1, Payload: append([]byte(nil), buf[:]...)})
	}
	if rank < a.n-1 {
		out = append(out, Message{Dest: rank + 1, Payload: append([]byte(nil), buf[:]...)})
	}
	return out, nil
}

func (a *toyApp) Advance(rank, iter int, inbox []Message) error {
	if a.iter[rank] != iter {
		return fmt.Errorf("toy: rank %d asked to advance iter %d while at %d", rank, iter, a.iter[rank])
	}
	acc := a.state[rank] * 31
	for _, m := range inbox {
		acc += binary.LittleEndian.Uint64(m.Payload) * uint64(m.Src+7)
	}
	a.state[rank] = acc + uint64(iter)
	a.iter[rank]++
	return nil
}

func (a *toyApp) Snapshot(rank int) ([]byte, error) {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], a.state[rank])
	binary.LittleEndian.PutUint64(buf[8:], uint64(a.iter[rank]))
	return buf[:], nil
}

func (a *toyApp) Restore(rank int, b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("toy: bad snapshot size %d", len(b))
	}
	a.state[rank] = binary.LittleEndian.Uint64(b[:8])
	a.iter[rank] = int(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

// reference runs the app failure-free without any protocol, as ground truth.
func reference(n, iters int) []uint64 {
	a := newToyApp(n)
	inbox := make([][]Message, n)
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			msgs, _ := a.Produce(r, it)
			for _, m := range msgs {
				m.Src, m.Iter = r, it
				inbox[m.Dest] = append(inbox[m.Dest], m)
			}
		}
		for r := 0; r < n; r++ {
			_ = a.Advance(r, it, sortedBySrc(inbox[r]))
			inbox[r] = nil
		}
	}
	return a.state
}

func sortedBySrc(ms []Message) []Message {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Src < ms[j-1].Src; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	return ms
}

// testConfig builds 16 ranks on 4 nodes (4 per node), clusters = nodes,
// transversal L2 groups of 4 (one member per node), checkpoint every 4.
func testConfig(t *testing.T, level checkpoint.Level) (Config, *toyApp) {
	t.Helper()
	mach := &topology.Machine{
		Name: "t", Nodes: 4,
		SSDWriteBps: 1e9, SSDReadBps: 1e9, PFSWriteBps: 1e9, PFSReadBps: 1e9, NetBps: 1e9,
	}
	p, err := topology.Block(mach, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([]int32, 16)
	for r := range clusters {
		clusters[r] = int32(r / 4)
	}
	var groups [][]topology.Rank
	for i := 0; i < 4; i++ {
		groups = append(groups, []topology.Rank{
			topology.Rank(i), topology.Rank(4 + i), topology.Rank(8 + i), topology.Rank(12 + i),
		})
	}
	return Config{
		Placement:       p,
		Clusters:        clusters,
		Groups:          groups,
		CheckpointEvery: 4,
		Level:           level,
	}, newToyApp(16)
}

func TestFailureFreeMatchesReference(t *testing.T) {
	cfg, app := testConfig(t, checkpoint.L3Encoded)
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(16, 10)
	for r := range want {
		if app.state[r] != want[r] {
			t.Fatalf("rank %d state %d != reference %d", r, app.state[r], want[r])
		}
	}
	if rep.CheckpointsTaken < 3 {
		t.Errorf("CheckpointsTaken = %d, want >= 3", rep.CheckpointsTaken)
	}
	if len(rep.Failures) != 0 {
		t.Errorf("failure-free run reported failures: %+v", rep.Failures)
	}
}

func TestLoggedFractionLineTopology(t *testing.T) {
	// 16 ranks in a line, clusters of 4: 3 crossing channels of 30
	// directed messages per iteration → exactly 6/30 = 20% logged.
	cfg, app := testConfig(t, checkpoint.L1Local)
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.LoggedFraction; got < 0.199 || got > 0.201 {
		t.Errorf("LoggedFraction = %g, want 0.2", got)
	}
	if rep.TotalBytes != int64(10*30*8) {
		t.Errorf("TotalBytes = %d, want %d", rep.TotalBytes, 10*30*8)
	}
	if rep.PeakLogBytes <= 0 {
		t.Error("PeakLogBytes not tracked")
	}
}

func TestContainedRecoverySingleNode(t *testing.T) {
	// Node 2 (ranks 8..11, cluster 2) fails at iteration 6, between the
	// checkpoints at 4 and 8. Only cluster 2 restarts; the final state
	// must equal the failure-free reference.
	cfg, app := testConfig(t, checkpoint.L3Encoded)
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(12, map[int][]topology.NodeID{6: {2}})
	if err != nil {
		t.Fatal(err)
	}
	want := reference(16, 12)
	for r := range want {
		if app.state[r] != want[r] {
			t.Fatalf("rank %d state %d != reference %d after recovery", r, app.state[r], want[r])
		}
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %+v", rep.Failures)
	}
	ev := rep.Failures[0]
	if ev.RestartedRanks != 4 {
		t.Errorf("RestartedRanks = %d, want 4 (containment)", ev.RestartedRanks)
	}
	if ev.RestartedFraction != 0.25 {
		t.Errorf("RestartedFraction = %g, want 0.25", ev.RestartedFraction)
	}
	if ev.ReExecutedIters != 2 { // checkpoint at 4, failure at 6
		t.Errorf("ReExecutedIters = %d, want 2", ev.ReExecutedIters)
	}
	if ev.ReplayedMessages == 0 {
		t.Error("no messages replayed from sender logs")
	}
	if ev.SuppressedDuplicates == 0 {
		t.Error("no duplicates suppressed at unaffected receivers")
	}
	// Ranks on the failed node lost their local checkpoints: they must
	// have been recovered via RS decode (L3); co-cluster ranks on healthy
	// nodes restore locally (L1).
	if ev.RestoreLevels[checkpoint.L3Encoded] == 0 {
		t.Errorf("RestoreLevels = %v, want some L3 recoveries", ev.RestoreLevels)
	}
	// The L3 recoveries above ran a real RS decode, so the event must
	// carry its measured reconstruction time.
	if ev.DecodeWallTime <= 0 {
		t.Errorf("DecodeWallTime = %v, want > 0 when L3 decode ran", ev.DecodeWallTime)
	}
}

func TestRecoveryViaPartnerCopies(t *testing.T) {
	cfg, app := testConfig(t, checkpoint.L2Partner)
	cfg.Groups = nil
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run.Run(12, map[int][]topology.NodeID{6: {1}})
	if err != nil {
		t.Fatal(err)
	}
	want := reference(16, 12)
	for r := range want {
		if app.state[r] != want[r] {
			t.Fatalf("rank %d diverged after partner-copy recovery", r)
		}
	}
}

func TestL1OnlyNodeFailureIsUnrecoverable(t *testing.T) {
	// The motivating pathology: local-only checkpoints die with the node.
	cfg, app := testConfig(t, checkpoint.L1Local)
	cfg.Groups = nil
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run.Run(12, map[int][]topology.NodeID{6: {2}})
	if !checkpoint.Unrecoverable(err) {
		t.Errorf("err = %v, want unrecoverable", err)
	}
}

func TestFailureImmediatelyAfterCheckpoint(t *testing.T) {
	cfg, app := testConfig(t, checkpoint.L3Encoded)
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(12, map[int][]topology.NodeID{8: {0}})
	if err != nil {
		t.Fatal(err)
	}
	want := reference(16, 12)
	for r := range want {
		if app.state[r] != want[r] {
			t.Fatalf("rank %d diverged", r)
		}
	}
	if rep.Failures[0].ReExecutedIters != 0 {
		t.Errorf("ReExecutedIters = %d, want 0 (failure on the checkpoint line)", rep.Failures[0].ReExecutedIters)
	}
}

func TestMultipleFailuresDifferentIterations(t *testing.T) {
	cfg, app := testConfig(t, checkpoint.L3Encoded)
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(20, map[int][]topology.NodeID{5: {3}, 13: {0}})
	if err != nil {
		t.Fatal(err)
	}
	want := reference(16, 20)
	for r := range want {
		if app.state[r] != want[r] {
			t.Fatalf("rank %d diverged after two failures", r)
		}
	}
	if len(rep.Failures) != 2 {
		t.Fatalf("handled %d failures, want 2", len(rep.Failures))
	}
}

func TestMultiNodeFailureRestartsBothClusters(t *testing.T) {
	cfg, app := testConfig(t, checkpoint.L3Encoded)
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(12, map[int][]topology.NodeID{6: {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := reference(16, 12)
	for r := range want {
		if app.state[r] != want[r] {
			t.Fatalf("rank %d diverged", r)
		}
	}
	if rep.Failures[0].RestartedRanks != 8 {
		t.Errorf("RestartedRanks = %d, want 8 (two clusters)", rep.Failures[0].RestartedRanks)
	}
}

func TestDistributedClusteringAmplifiesRestart(t *testing.T) {
	// The paper's Fig. 4c effect: with clusters striped across nodes, one
	// node failure drags every cluster down — here all 16 ranks.
	cfg, app := testConfig(t, checkpoint.L3Encoded)
	for r := 0; r < 16; r++ {
		cfg.Clusters[r] = int32(r % 4) // stripe clusters across nodes
	}
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(12, map[int][]topology.NodeID{6: {2}})
	if err != nil {
		t.Fatal(err)
	}
	want := reference(16, 12)
	for r := range want {
		if app.state[r] != want[r] {
			t.Fatalf("rank %d diverged", r)
		}
	}
	if rep.Failures[0].RestartedRanks != 16 {
		t.Errorf("RestartedRanks = %d, want 16 (no containment)", rep.Failures[0].RestartedRanks)
	}
}

func TestLogTrimKeepsMemoryBounded(t *testing.T) {
	cfg, app := testConfig(t, checkpoint.L1Local)
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Run(40, nil); err != nil {
		t.Fatal(err)
	}
	// After the last checkpoint (iter 36), at most 4 iterations of logged
	// traffic remain: 6 crossing messages × 8 bytes × 4 iters per rank set.
	var live int64
	for r := 0; r < 16; r++ {
		live += run.logs[r].Bytes()
	}
	if live > 6*8*4 {
		t.Errorf("live log bytes = %d, want <= %d (trim failed)", live, 6*8*4)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg, app := testConfig(t, checkpoint.L1Local)
	bad := cfg
	bad.Placement = nil
	if _, err := NewRunner(bad, app); err == nil {
		t.Error("accepted nil placement")
	}
	bad = cfg
	bad.Clusters = []int32{0}
	if _, err := NewRunner(bad, app); err == nil {
		t.Error("accepted short cluster list")
	}
	bad = cfg
	bad.CheckpointEvery = 0
	if _, err := NewRunner(bad, app); err == nil {
		t.Error("accepted CheckpointEvery=0")
	}
	bad = cfg
	bad.Clusters = append([]int32(nil), cfg.Clusters...)
	bad.Clusters[3] = -1
	if _, err := NewRunner(bad, app); err == nil {
		t.Error("accepted negative cluster id")
	}
	good, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Run(-1, nil); err == nil {
		t.Error("accepted negative iterations")
	}
}

func TestAppErrorsPropagate(t *testing.T) {
	cfg, app := testConfig(t, checkpoint.L1Local)
	run, err := NewRunner(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the app state so Produce errors at iteration 3.
	app.iter[5] = 99
	_, err = run.Run(5, nil)
	if err == nil {
		t.Fatal("app error swallowed")
	}
	if !strings.Contains(err.Error(), "rank 5") {
		t.Errorf("error %q lost rank context", err)
	}
}
