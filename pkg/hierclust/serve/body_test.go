package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hierclust/internal/faultinject"
)

// shortBodyTimeout shortens readBody's deadline for one test.
func shortBodyTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	old := bodyTimeout
	bodyTimeout = d
	t.Cleanup(func() { bodyTimeout = old })
}

// TestStalledBodyTimeout: a client that declares a body and stalls after
// part of it is answered 400, or has its connection closed, once the body
// deadline passes; it does not hold the handler for as long as it likes.
func TestStalledBodyTimeout(t *testing.T) {
	shortBodyTimeout(t, 100*time.Millisecond)
	ts := httptest.NewServer(New(Options{CacheSize: 4}))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/evaluate HTTP/1.1\r\nHost: hcserve\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n"+`{"name":`); err != nil {
		t.Fatal(err)
	}
	// Without a body deadline the server waits for the other 992 bytes
	// and this read times out.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := bufio.NewReader(conn).ReadString('\n')
	elapsed := time.Since(start)
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		t.Fatalf("no answer %s after a stalled body (body deadline %s)", elapsed, bodyTimeout)
	case err == nil && !strings.Contains(status, " 400 "):
		t.Fatalf("status line %q, want 400 or a closed connection", status)
	}
	t.Logf("stalled body answered %q (err %v) after %s", strings.TrimSpace(status), err, elapsed)
}

// TestDeclaredOversizeBodyRefused: a Content-Length over the endpoint's
// limit is a 413 on the headers alone. The client sends no body byte, so a
// server that reads before it refuses waits out the body deadline and
// answers 400.
func TestDeclaredOversizeBodyRefused(t *testing.T) {
	shortBodyTimeout(t, 2*time.Second)
	ts := httptest.NewServer(New(Options{CacheSize: 4}))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "POST /v1/evaluate-batch HTTP/1.1\r\nHost: hcserve\r\n"+
		"Content-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n", 16<<20+1); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := bufio.NewReader(conn).ReadString('\n')
	elapsed := time.Since(start)
	if err != nil || !strings.Contains(status, " 413 ") {
		t.Fatalf("status line %q (err %v) after %s, want 413", status, err, elapsed)
	}
	t.Logf("answered %q after %s", strings.TrimSpace(status), elapsed)
	if elapsed > bodyTimeout/2 {
		t.Fatalf("413 after %s: the server waited for the body (deadline %s)", elapsed, bodyTimeout)
	}
}

// TestSlowBatchOutlastsBodyTimeout: the body deadline ends with the body,
// so an evaluation that runs past it streams its lines. A deadline left on
// the connection would fail net/http's background read, which cancels the
// request's context and turns the lines into 499s.
func TestSlowBatchOutlastsBodyTimeout(t *testing.T) {
	defer faultinject.DisarmAll()
	shortBodyTimeout(t, 50*time.Millisecond)
	ts := httptest.NewServer(New(Options{CacheSize: -1}))
	defer ts.Close()

	faultinject.Arm("pipeline.worker", faultinject.Fault{Kind: faultinject.KindLatency, Delay: 4 * bodyTimeout})
	resp, lines := postBatch(t, ts.URL, "["+batchScenario("slow-a", "naive", 8)+","+batchScenario("slow-b", "naive", 16)+"]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	for i, ln := range lines {
		if ln.Status != http.StatusOK {
			t.Errorf("line %d: status %d (%s), want 200", i, ln.Status, ln.Error)
		}
	}
}

// zeros is an endless reader of '0' bytes, a body of any length that the
// client never holds in memory.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestBodyLimits pins the fixed body limits: one byte over an endpoint's
// limit is a 413, whether the client declares the length or sends the body
// chunked.
func TestBodyLimits(t *testing.T) {
	ts := httptest.NewServer(New(Options{CacheSize: 4}))
	defer ts.Close()
	for _, c := range []struct {
		path  string
		limit int64
	}{
		{"/v1/evaluate", 1 << 20},
		{"/v1/evaluate-batch", 16 << 20},
		{"/v1/sweeps", 16 << 20},
	} {
		for _, chunked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/chunked=%v", c.path, chunked), func(t *testing.T) {
				req, err := http.NewRequest(http.MethodPost, ts.URL+c.path, io.LimitReader(zeros{}, c.limit+1))
				if err != nil {
					t.Fatal(err)
				}
				req.ContentLength = c.limit + 1
				if chunked {
					req.ContentLength = -1
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusRequestEntityTooLarge {
					t.Fatalf("status %d, want 413", resp.StatusCode)
				}
			})
		}
	}
}
