// Package leakcheck asserts, at TestMain exit, that a test suite did not
// leak goroutines. The serve and pipeline packages spawn worker pools and
// singleflight builders on every request; a
// boundary that forgets to join one of them under an injected fault shows
// up here as a hard test failure with a full stack dump, instead of as a
// slow memory leak in a long-lived hcserve process.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// slack tolerates runtime-owned goroutines that come and go outside the
// suite's control (finalizer, netpoll, idle HTTP keep-alive teardown).
const slack = 4

// Main wraps m.Run with a goroutine-leak assertion: the count after the
// suite (given a settle window for request teardown) must return to the
// pre-suite baseline plus slack. Use from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !settle(base+slack, 10*time.Second) {
		n := runtime.NumGoroutine()
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after suite, baseline %d (+%d slack); stacks:\n%s\n",
			n, base, slack, buf)
		code = 1
	}
	os.Exit(code)
}

// settle polls until the goroutine count drops to at most want or the
// deadline passes — in-flight teardown (connection close, worker drain) is
// normal, goroutines still alive after the window are leaks.
func settle(want int, window time.Duration) bool {
	deadline := time.Now().Add(window)
	for {
		if runtime.NumGoroutine() <= want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
