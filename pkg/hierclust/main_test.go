package hierclust

import (
	"testing"

	"hierclust/internal/leakcheck"
)

// TestMain asserts the suite — including cancelled Runs, injected panics,
// and degraded-cache chaos — leaks no goroutines (singleflight builders and
// worker pools all joined).
func TestMain(m *testing.M) { leakcheck.Main(m) }
