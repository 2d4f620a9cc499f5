package graph

import (
	"context"
	"runtime/pprof"
)

// Phase labels attribute partition CPU time to its two phases (grow, which
// includes the small-cluster merge, and refine) in pprof profiles, so a
// -cpuprofile run answers "which phase" without guessing from symbols.
// Labels are applied as goroutine labels on the partitioning goroutine, and
// every call allocates, so they are off by default and switched on only by
// profiling entry points (hcrun -cpuprofile) before any partition runs; the
// hot path pays one load per phase transition and zero allocations.

var phaseLabelsOn bool

// SetPhaseLabels toggles runtime/pprof phase labels on the partition
// pipeline. Enable it together with CPU profiling, before any partition
// starts: the flag is read without synchronization. Leave it off otherwise
// — each phase transition allocates while labels are on.
func SetPhaseLabels(on bool) { phaseLabelsOn = on }

// setPhase labels the calling goroutine with phase=name until the next
// setPhase or clearPhase.
func setPhase(name string) {
	if !phaseLabelsOn {
		return
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("phase", name)))
}

// clearPhase removes the phase labels from the calling goroutine.
func clearPhase() {
	if !phaseLabelsOn {
		return
	}
	pprof.SetGoroutineLabels(context.Background())
}
