// Package pool is the repository's one bounded worker pool: every place that
// runs N independent items on at most W goroutines — strategies of a
// scenario, cells of a sweep or a batch, harness experiments, enumeration
// chunks of the reliability model, byte chunks of the group encoder — calls
// Run. Callers resolve their own worker policy (GOMAXPROCS caps, budget
// splits) and pass the number.
package pool

import (
	"sync"
	"sync/atomic"
)

// Run calls fn(arg, i, worker) once for each i in [0, n) on at most workers
// goroutines and returns when every call has returned. Indices are claimed
// in ascending order; worker is a stable id < workers per goroutine, so
// callers may index per-worker scratch with it. Results never depend on
// scheduling provided fn writes only to per-index (or per-worker scratch)
// state.
//
// arg reaches every call of fn and stop: a caller whose loop state is one
// object passes it there, with functions that capture nothing (method
// expressions such as (*T).do), and the loop allocates no closure. With
// workers <= 1 or n <= 1 every call runs in index order on the caller's
// goroutine, with no goroutine, channel or allocation.
//
// A non-nil stop is polled before each claim; once it reports true no
// further index is claimed (calls already running finish). Run returns how
// many indices were claimed: exactly [0, claimed) ran, so callers can mark
// the unclaimed suffix. fn must not panic on a pooled goroutine — callers
// that isolate panics recover inside fn.
func Run[A any](n, workers int, arg A, stop func(A) bool, fn func(arg A, i, worker int)) (claimed int) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if stop != nil && stop(arg) {
				return i
			}
			fn(arg, i, 0)
		}
		return n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for stop == nil || !stop(arg) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(arg, i, w)
			}
		}(w)
	}
	wg.Wait()
	return min(int(next.Load()), n)
}
