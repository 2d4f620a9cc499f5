package tsunami

import (
	"fmt"

	"hierclust/internal/simmpi"
)

// RunTraced executes the tsunami simulation concurrently on simmpi with
// every rank a goroutine — the paper's method of building the trace: an
// MPI_Allgather during initialization (FTI init), the ±1 boundary
// exchanges of the stencil, and — when encoders are enabled — the
// application→encoder checkpoint traffic plus encoder↔encoder parity
// exchanges. It is the oracle Schedule is checked against, and returns
// the per-rank final mass for verification.
func RunTraced(o TracedOptions) ([]float64, error) {
	if err := o.Params.Validate(); err != nil {
		return nil, err
	}
	if o.Iterations <= 0 {
		return nil, fmt.Errorf("tsunami: %d iterations", o.Iterations)
	}
	worldSize, appOf, encOf, err := worldLayout(&o)
	if err != nil {
		return nil, err
	}
	// Reverse map world rank -> app rank (-1 for encoders).
	appRank := make([]int, worldSize)
	for i := range appRank {
		appRank[i] = -1
	}
	for a, w := range appOf {
		appRank[w] = a
	}

	// Tag conventions: ghost rows use tagOf(iteration, direction);
	// checkpoint posts use 200, acks 202, encoder parity 300+round.
	masses := make([]float64, o.Params.Ranks)
	err = simmpi.Run(worldSize, simmpi.Options{Tracer: o.Tracer}, func(p *simmpi.Proc) error {
		comm := p.Comm()
		// FTI initialization: every process joins an Allgather (the
		// power-of-two diagonals of Fig. 5b).
		if _, err := comm.Allgather([]byte{byte(p.Rank())}); err != nil {
			return err
		}
		a := appRank[p.Rank()]
		if a == -1 {
			return runEncoder(comm, p.Rank(), &o, encOf, appOf)
		}
		return runAppRank(comm, a, &o, appOf, encOf, masses)
	})
	if err != nil {
		return nil, err
	}
	return masses, nil
}

func runAppRank(comm *simmpi.Comm, a int, o *TracedOptions, appOf, encOf []int, masses []float64) error {
	s, err := NewSolver(o.Params, a)
	if err != nil {
		return err
	}
	n := o.Params.Ranks
	for it := 0; it < o.Iterations; it++ {
		var upReq, downReq *simmpi.Request
		if a > 0 {
			if err := comm.Send(appOf[a-1], tagOf(it, true), s.TopRows()); err != nil {
				return err
			}
			upReq = comm.Irecv(appOf[a-1], tagOf(it, false))
		}
		if a < n-1 {
			if err := comm.Send(appOf[a+1], tagOf(it, false), s.BottomRows()); err != nil {
				return err
			}
			downReq = comm.Irecv(appOf[a+1], tagOf(it, true))
		}
		if upReq != nil {
			b, err := upReq.Wait()
			if err != nil {
				return err
			}
			if err := s.SetTopGhost(b); err != nil {
				return err
			}
		}
		if downReq != nil {
			b, err := downReq.Wait()
			if err != nil {
				return err
			}
			if err := s.SetBottomGhost(b); err != nil {
				return err
			}
		}
		s.Step()

		if o.EncoderRanks && o.CheckpointEvery > 0 && (it+1)%o.CheckpointEvery == 0 {
			// Send the checkpoint to this node's encoder and wait for the
			// ack (FTI's local post + encode handshake).
			node := a / o.ProcsPerNode
			enc := encOf[node]
			if err := comm.Send(enc, 200, make([]byte, o.CheckpointBytes)); err != nil {
				return err
			}
			if _, err := comm.Recv(enc, 202); err != nil {
				return err
			}
		}
	}
	masses[a] = s.Mass()
	return nil
}

// tagOf disambiguates ghost messages by iteration and direction.
func tagOf(it int, up bool) simmpi.Tag {
	t := simmpi.Tag(1000 + 2*it)
	if up {
		t++
	}
	return t
}

func runEncoder(comm *simmpi.Comm, worldRank int, o *TracedOptions, encOf, appOf []int) error {
	if o.CheckpointEvery <= 0 {
		return nil
	}
	// Which node is this encoder's? encOf is ascending.
	node := -1
	for nd, w := range encOf {
		if w == worldRank {
			node = nd
			break
		}
	}
	if node == -1 {
		return fmt.Errorf("tsunami: world rank %d not an encoder", worldRank)
	}
	nodes := len(encOf)
	group4 := node / 4 // encoders cooperate in 4-node groups
	lo := group4 * 4
	hi := lo + 4
	if hi > nodes {
		hi = nodes
	}
	rounds := o.Iterations / o.CheckpointEvery
	for round := 0; round < rounds; round++ {
		// Collect checkpoints from this node's application ranks.
		for k := 0; k < o.ProcsPerNode; k++ {
			a := node*o.ProcsPerNode + k
			if _, err := comm.Recv(appOf[a], 200); err != nil {
				return err
			}
		}
		// Exchange parity-sized blocks with the other encoders of the
		// group (the isolated points at encoder intersections in Fig. 5b).
		parity := make([]byte, o.CheckpointBytes)
		for other := lo; other < hi; other++ {
			if other == node {
				continue
			}
			if err := comm.Send(encOf[other], simmpi.Tag(300+round), parity); err != nil {
				return err
			}
		}
		for other := lo; other < hi; other++ {
			if other == node {
				continue
			}
			if _, err := comm.Recv(encOf[other], simmpi.Tag(300+round)); err != nil {
				return err
			}
		}
		// Ack the application ranks.
		for k := 0; k < o.ProcsPerNode; k++ {
			a := node*o.ProcsPerNode + k
			if err := comm.Send(appOf[a], 202, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
