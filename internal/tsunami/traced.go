package tsunami

import (
	"fmt"

	"hierclust/internal/simmpi"
)

// TracedOptions configures the traced execution of the tsunami
// simulation the paper recorded for Figures 5a/5b: its world layout, its
// iteration and checkpoint schedule, and the Tracer that sees its
// messages.
type TracedOptions struct {
	// Params configures the solver; Params.Ranks application ranks run.
	Params Params
	// Iterations is the number of stencil steps (the paper used 100).
	Iterations int
	// ProcsPerNode is the number of application ranks per node in the
	// world layout; used only when EncoderRanks is set.
	ProcsPerNode int
	// EncoderRanks adds one FTI-style encoder process per node: world
	// rank layout becomes [enc, app×ProcsPerNode] repeating, so encoder
	// processes sit at world ranks ≡ 0 (mod ProcsPerNode+1) — ranks 0,
	// 17, 34, 51... in the paper's 16-app-procs-per-node run.
	EncoderRanks bool
	// CheckpointEvery triggers an encoder round every so many iterations
	// (0 disables). Each application rank sends its checkpoint-sized
	// payload to its node's encoder, and encoders exchange parity blocks
	// with the other encoders of their 4-node group.
	CheckpointEvery int
	// CheckpointBytes is the per-rank checkpoint payload for encoder
	// rounds.
	CheckpointBytes int
	// Tracer observes all traffic.
	Tracer simmpi.Tracer
}

// worldLayout computes the world size and the role of each world rank.
// With encoders, each node block is [encoder, app, app, ...].
func worldLayout(o *TracedOptions) (worldSize int, appOf []int, encOf []int, err error) {
	n := o.Params.Ranks
	if !o.EncoderRanks {
		appOf = make([]int, n)
		for i := range appOf {
			appOf[i] = i
		}
		return n, appOf, nil, nil
	}
	if o.ProcsPerNode <= 0 {
		return 0, nil, nil, fmt.Errorf("tsunami: EncoderRanks requires ProcsPerNode")
	}
	if n%o.ProcsPerNode != 0 {
		return 0, nil, nil, fmt.Errorf("tsunami: %d app ranks not divisible by %d per node", n, o.ProcsPerNode)
	}
	nodes := n / o.ProcsPerNode
	worldSize = n + nodes
	appOf = make([]int, n)     // app rank -> world rank
	encOf = make([]int, nodes) // node -> world rank of its encoder
	w := 0
	a := 0
	for nd := 0; nd < nodes; nd++ {
		encOf[nd] = w
		w++
		for k := 0; k < o.ProcsPerNode; k++ {
			appOf[a] = w
			a++
			w++
		}
	}
	return worldSize, appOf, encOf, nil
}

// Schedule feeds o.Tracer every message of the traced execution the paper
// recorded, without running it: the FTI-init MPI_Allgather over the whole
// world, the ±1 ghost rows of the stencil (open ends), and — when
// encoders are enabled — the application→encoder checkpoints, the
// encoder↔encoder parity exchanges within 4-node groups and the zero-byte
// acks. Who sends how many bytes to whom does not depend on the solver's
// values, so this is the whole trace; the package's tests check it byte
// for byte against a concurrent run of the solver on simmpi.
func Schedule(o TracedOptions) error {
	if err := o.Params.Validate(); err != nil {
		return err
	}
	if o.Iterations <= 0 {
		return fmt.Errorf("tsunami: %d iterations", o.Iterations)
	}
	worldSize, appOf, encOf, err := worldLayout(&o)
	if err != nil {
		return err
	}
	rounds := 0
	if o.EncoderRanks && o.CheckpointEvery > 0 {
		if o.CheckpointBytes < 0 {
			return fmt.Errorf("tsunami: %d checkpoint bytes", o.CheckpointBytes)
		}
		rounds = o.Iterations / o.CheckpointEvery
	}
	t := o.Tracer
	if t == nil {
		return nil
	}
	// Every process's one-byte rank id.
	simmpi.AllgatherSchedule(worldSize, 1, t)
	// One packed row of (η, u, v) per neighbour per iteration.
	ghost := 3 * o.Params.NX * 8
	for a := 0; a+1 < len(appOf); a++ {
		for range o.Iterations {
			t.Record(appOf[a], appOf[a+1], ghost)
			t.Record(appOf[a+1], appOf[a], ghost)
		}
	}
	for range rounds {
		for a, w := range appOf {
			t.Record(w, encOf[a/o.ProcsPerNode], o.CheckpointBytes)
		}
		for node, enc := range encOf {
			lo := node / 4 * 4
			for other := lo; other < min(lo+4, len(encOf)); other++ {
				if other != node {
					t.Record(enc, encOf[other], o.CheckpointBytes)
				}
			}
		}
		for a, w := range appOf {
			t.Record(encOf[a/o.ProcsPerNode], w, 0)
		}
	}
	return nil
}
