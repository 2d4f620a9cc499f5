package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// acquireAsync starts an acquire in a goroutine and returns a channel
// delivering its outcome.
func acquireAsync(lim *limiter, ctx context.Context, client string, background bool) chan func() {
	out := make(chan func(), 1)
	go func() {
		adm, release := lim.acquire(ctx, client, background)
		if adm != admitted {
			out <- nil
			return
		}
		out <- release
	}()
	return out
}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFairnessClientSlotCap: one client can hold at most clientCap slots
// — its surplus request queues even while slots sit free, and another
// client walks straight into the reserved headroom.
func TestFairnessClientSlotCap(t *testing.T) {
	lim := newLimiter(4, 8, 0, nil) // clientCap defaults to 3
	var releases []func()
	for i := 0; i < 3; i++ {
		adm, release := lim.acquire(context.Background(), "hog", false)
		if adm != admitted {
			t.Fatalf("hog acquire %d not admitted", i)
		}
		releases = append(releases, release)
	}

	// The hog's 4th request queues despite a free slot.
	hog4 := acquireAsync(lim, context.Background(), "hog", false)
	waitCond(t, "hog's over-cap request queueing", func() bool { return lim.queued() == 1 })
	if lim.running() != 3 {
		t.Fatalf("running = %d, want 3 (cap held)", lim.running())
	}

	// A different client is admitted immediately into the headroom.
	adm, otherRelease := lim.acquire(context.Background(), "other", false)
	if adm != admitted {
		t.Fatalf("other client admission = %v, want admitted (headroom reserved by the cap)", adm)
	}

	// Freeing the other client's slot does NOT admit the hog — it is
	// still at its cap; freeing one of the hog's own slots does.
	otherRelease()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-hog4:
		t.Fatal("hog admitted past its cap by another client's release")
	default:
	}
	releases[0]()
	select {
	case release := <-hog4:
		if release == nil {
			t.Fatal("hog's queued request failed")
		}
		release()
	case <-time.After(5 * time.Second):
		t.Fatal("hog's queued request never admitted after its own release")
	}
	releases[1]()
	releases[2]()
}

// TestFairnessBackgroundYieldsToInteractive: a background (sweep-cell)
// waiter that arrived first still yields the freed slot to a later
// interactive waiter.
func TestFairnessBackgroundYieldsToInteractive(t *testing.T) {
	lim := newLimiter(1, 4, 1, nil)
	adm, release := lim.acquire(context.Background(), "holder", false)
	if adm != admitted {
		t.Fatal("holder not admitted")
	}

	bg := acquireAsync(lim, context.Background(), "sweeper", true)
	waitCond(t, "background waiter queueing", func() bool { return lim.queuedBackground() == 1 })
	inter := acquireAsync(lim, context.Background(), "human", false)
	waitCond(t, "interactive waiter queueing", func() bool { return lim.queued() == 1 })

	release()
	var interRelease func()
	select {
	case interRelease = <-inter:
		if interRelease == nil {
			t.Fatal("interactive waiter failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interactive waiter not granted first")
	}
	if lim.queuedBackground() != 1 {
		t.Fatal("background waiter granted ahead of interactive")
	}
	interRelease()
	select {
	case bgRelease := <-bg:
		if bgRelease == nil {
			t.Fatal("background waiter failed")
		}
		bgRelease()
	case <-time.After(5 * time.Second):
		t.Fatal("background waiter never granted")
	}
}

// TestFairnessBackgroundExemptFromShed: background acquires queue past
// the interactive queue bound instead of shedding (a sweep's concurrency
// is bounded upstream; shedding its cells would only force retries).
func TestFairnessBackgroundExemptFromShed(t *testing.T) {
	lim := newLimiter(1, 0, 1, nil) // no interactive queue at all
	_, release := lim.acquire(context.Background(), "holder", false)

	if adm, _ := lim.acquire(context.Background(), "human", false); adm != admissionShed {
		t.Fatalf("interactive admission = %v, want shed (queue depth 0)", adm)
	}
	bg := acquireAsync(lim, context.Background(), "sweeper", true)
	waitCond(t, "background waiter queueing", func() bool { return lim.queuedBackground() == 1 })

	release()
	select {
	case bgRelease := <-bg:
		if bgRelease == nil {
			t.Fatal("background waiter failed")
		}
		bgRelease()
	case <-time.After(5 * time.Second):
		t.Fatal("background waiter never granted")
	}
}

// TestFairnessHTTPHeaderKeysClient: end to end, a client saturating its
// per-client cap via X-Hierclust-Client sheds (503/429 paths aside, the
// cap path) while a differently-named client still evaluates.
func TestFairnessHTTPHeaderKeysClient(t *testing.T) {
	s := New(Options{CacheSize: -1, MaxConcurrent: 2, QueueDepth: -1, ClientSlotCap: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Hold client A's full share (cap 1 of 2 slots) directly.
	adm, release := s.lim.acquire(context.Background(), "client-a", false)
	if adm != admitted {
		t.Fatal("could not hold client-a's slot")
	}
	defer release()

	post := func(client string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/evaluate",
			strings.NewReader(batchScenario("fair-"+client, "naive", 8)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Hierclust-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// client-a is at its cap: with no queue, its request sheds. client-b
	// uses the second slot and succeeds.
	if got := post("client-a"); got != http.StatusTooManyRequests {
		t.Fatalf("capped client status = %d, want 429", got)
	}
	if got := post("client-b"); got != http.StatusOK {
		t.Fatalf("other client status = %d, want 200", got)
	}
}
