// Package tsunami implements the stencil application of the paper's
// evaluation (reference [1], Arce-Acuna & Aoki's real-time tsunami
// simulation): a 2-D linearized shallow-water solver over a sea region,
// decomposed into horizontal slabs, one per rank. Each iteration every rank
// exchanges boundary rows with ranks ±1 — the "blue double diagonal" that
// dominates the communication matrix of the paper's Figure 5b.
//
// The numerics use the Lax–Friedrichs scheme for the linearized long-wave
// equations (∂η/∂t = -H∇·u, ∂u/∂t = -g∇η): dissipative but
// unconditionally stable under the CFL bound, needing a single ghost-row
// exchange of all three fields per step, and exactly mass-conserving under
// periodic boundaries. The solver is deterministic, making it
// send-deterministic under the hybrid protocol.
package tsunami

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Boundary selects the global boundary condition.
type Boundary int

const (
	// Reflective mirrors the fields at the domain edge with the normal
	// velocity negated (a coastline): the paper's open-sea setting.
	Reflective Boundary = iota
	// Periodic wraps the domain in both directions; mass is conserved to
	// machine precision, which the invariant tests exploit.
	Periodic
)

// Params configures a global simulation.
type Params struct {
	// NX and NY are the global grid dimensions (columns, rows).
	NX, NY int
	// Ranks is the number of horizontal slabs; NY must divide evenly.
	Ranks int
	// Depth is the uniform water depth H (m).
	Depth float64
	// G is gravity (m/s²).
	G float64
	// Dx is the grid spacing (m).
	Dx float64
	// Dt is the time step (s); must satisfy the CFL bound
	// Dt ≤ Dx/(√2·√(G·H)).
	Dt float64
	// Boundary selects the edge condition.
	Boundary Boundary
	// Source is the initial Gaussian displacement.
	Source Source
}

// Source is a Gaussian initial surface displacement (the earthquake).
type Source struct {
	// CX, CY are the center in grid coordinates.
	CX, CY float64
	// Amplitude is the peak displacement (m).
	Amplitude float64
	// Sigma is the Gaussian width in cells.
	Sigma float64
}

// DefaultParams returns a stable mid-size configuration: a 256×256 sea at
// 4 km depth with a 2 m displacement, CFL ≈ 0.5.
func DefaultParams(ranks int) Params {
	p := Params{
		NX: 256, NY: 256, Ranks: ranks,
		Depth: 4000, G: 9.81, Dx: 1000,
		Boundary: Reflective,
		Source:   Source{CX: 128, CY: 128, Amplitude: 2, Sigma: 8},
	}
	c := math.Sqrt(p.G * p.Depth)
	p.Dt = 0.5 * p.Dx / (c * math.Sqrt2)
	return p
}

// TraceParams picks the tracing grid used by the paper-reproduction rigs:
// thin slabs keep the solver work proportional to the communication being
// traced. Full-scale runs (≥512 ranks) use a 256-wide sea so ghost rows
// dominate the trace the way the paper's real domain does; smaller runs
// shrink to 64 columns. Both the experiment harness and the public pipeline
// trace through this, so their matrices are identical at equal scales.
func TraceParams(ranks int) Params {
	p := DefaultParams(ranks)
	p.NX = 64
	if ranks >= 512 {
		p.NX = 256
	}
	p.NY = 2 * ranks
	p.Source = Source{CX: float64(p.NX) / 2, CY: float64(p.NY) / 2, Amplitude: 2, Sigma: float64(ranks) / 8}
	return p
}

// Validate reports configuration errors.
func (p *Params) Validate() error {
	if p.NX < 3 || p.NY < 3 {
		return fmt.Errorf("tsunami: grid %dx%d too small", p.NX, p.NY)
	}
	if p.Ranks <= 0 {
		return fmt.Errorf("tsunami: %d ranks", p.Ranks)
	}
	if p.NY%p.Ranks != 0 {
		return fmt.Errorf("tsunami: NY %d not divisible by %d ranks", p.NY, p.Ranks)
	}
	if p.NY/p.Ranks < 1 {
		return fmt.Errorf("tsunami: empty slabs")
	}
	if p.Depth <= 0 || p.G <= 0 || p.Dx <= 0 || p.Dt <= 0 {
		return fmt.Errorf("tsunami: non-positive physics parameters")
	}
	c := math.Sqrt(p.G * p.Depth)
	if p.Dt > p.Dx/(c*math.Sqrt2)+1e-12 {
		return fmt.Errorf("tsunami: Dt %g violates CFL bound %g", p.Dt, p.Dx/(c*math.Sqrt2))
	}
	return nil
}

// Solver holds one rank's slab: rows+2 ghost rows × NX cells of η, u, v.
type Solver struct {
	p         Params
	rank      int
	rows      int // interior rows
	y0        int // global index of first interior row
	eta, u, v []float64
	iter      int
}

// NewSolver builds rank's slab with the initial Gaussian applied.
func NewSolver(p Params, rank int) (*Solver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= p.Ranks {
		return nil, fmt.Errorf("tsunami: rank %d out of range 0..%d", rank, p.Ranks-1)
	}
	rows := p.NY / p.Ranks
	s := &Solver{
		p: p, rank: rank, rows: rows, y0: rank * rows,
		eta: make([]float64, (rows+2)*p.NX),
		u:   make([]float64, (rows+2)*p.NX),
		v:   make([]float64, (rows+2)*p.NX),
	}
	for j := 0; j < rows; j++ {
		gy := float64(s.y0 + j)
		for i := 0; i < p.NX; i++ {
			dx := float64(i) - p.Source.CX
			dy := gy - p.Source.CY
			s.eta[s.idx(j, i)] = p.Source.Amplitude *
				math.Exp(-(dx*dx+dy*dy)/(2*p.Source.Sigma*p.Source.Sigma))
		}
	}
	return s, nil
}

// idx maps interior row j (0-based) and column i to the flat offset;
// ghost rows are j=-1 and j=rows.
func (s *Solver) idx(j, i int) int { return (j+1)*s.p.NX + i }

// Rows returns the interior row count.
func (s *Solver) Rows() int { return s.rows }

// Iter returns the completed iteration count.
func (s *Solver) Iter() int { return s.iter }

// Eta returns the surface elevation at local row j, column i.
func (s *Solver) Eta(j, i int) float64 { return s.eta[s.idx(j, i)] }

// TopRows packs the first interior row of (η,u,v) — what the rank above
// (rank-1) needs as its bottom ghost.
func (s *Solver) TopRows() []byte { return s.packRow(0) }

// BottomRows packs the last interior row — the ghost for rank+1.
func (s *Solver) BottomRows() []byte { return s.packRow(s.rows - 1) }

func (s *Solver) packRow(j int) []byte {
	nx := s.p.NX
	out := make([]byte, 3*nx*8)
	for i := 0; i < nx; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(s.eta[s.idx(j, i)]))
		binary.LittleEndian.PutUint64(out[(nx+i)*8:], math.Float64bits(s.u[s.idx(j, i)]))
		binary.LittleEndian.PutUint64(out[(2*nx+i)*8:], math.Float64bits(s.v[s.idx(j, i)]))
	}
	return out
}

// SetTopGhost installs the neighbor row above (from rank-1's BottomRows).
func (s *Solver) SetTopGhost(data []byte) error { return s.unpackRow(-1, data) }

// SetBottomGhost installs the neighbor row below (from rank+1's TopRows).
func (s *Solver) SetBottomGhost(data []byte) error { return s.unpackRow(s.rows, data) }

func (s *Solver) unpackRow(j int, data []byte) error {
	nx := s.p.NX
	if len(data) != 3*nx*8 {
		return fmt.Errorf("tsunami: ghost row has %d bytes, want %d", len(data), 3*nx*8)
	}
	for i := 0; i < nx; i++ {
		s.eta[s.idx(j, i)] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		s.u[s.idx(j, i)] = math.Float64frombits(binary.LittleEndian.Uint64(data[(nx+i)*8:]))
		s.v[s.idx(j, i)] = math.Float64frombits(binary.LittleEndian.Uint64(data[(2*nx+i)*8:]))
	}
	return nil
}

// applyEdgeGhosts fills ghost rows at the global domain edges (only for the
// first and last slab) according to the boundary condition.
func (s *Solver) applyEdgeGhosts() {
	nx := s.p.NX
	if s.p.Boundary == Periodic {
		// Multi-rank periodic wrap is a cyclic exchange done by the caller;
		// a single slab wraps onto itself locally.
		if s.p.Ranks == 1 {
			for i := 0; i < nx; i++ {
				s.eta[s.idx(-1, i)] = s.eta[s.idx(s.rows-1, i)]
				s.u[s.idx(-1, i)] = s.u[s.idx(s.rows-1, i)]
				s.v[s.idx(-1, i)] = s.v[s.idx(s.rows-1, i)]
				s.eta[s.idx(s.rows, i)] = s.eta[s.idx(0, i)]
				s.u[s.idx(s.rows, i)] = s.u[s.idx(0, i)]
				s.v[s.idx(s.rows, i)] = s.v[s.idx(0, i)]
			}
		}
		return
	}
	if s.rank == 0 {
		for i := 0; i < nx; i++ {
			s.eta[s.idx(-1, i)] = s.eta[s.idx(0, i)]
			s.u[s.idx(-1, i)] = s.u[s.idx(0, i)]
			s.v[s.idx(-1, i)] = -s.v[s.idx(0, i)]
		}
	}
	if s.rank == s.p.Ranks-1 {
		for i := 0; i < nx; i++ {
			s.eta[s.idx(s.rows, i)] = s.eta[s.idx(s.rows-1, i)]
			s.u[s.idx(s.rows, i)] = s.u[s.idx(s.rows-1, i)]
			s.v[s.idx(s.rows, i)] = -s.v[s.idx(s.rows-1, i)]
		}
	}
}

// Step advances the slab one time step. Ghost rows must be current (via
// SetTopGhost/SetBottomGhost for interior boundaries; edge rows are filled
// from the boundary condition automatically).
func (s *Solver) Step() {
	s.applyEdgeGhosts()
	nx := s.p.NX
	lam := s.p.Dt / s.p.Dx
	gl, hl := s.p.G*lam, s.p.Depth*lam

	ne := make([]float64, len(s.eta))
	nu := make([]float64, len(s.u))
	nv := make([]float64, len(s.v))
	copy(ne, s.eta)
	copy(nu, s.u)
	copy(nv, s.v)

	xm := func(i int) int { // left neighbor with x boundary handling
		if i > 0 {
			return i - 1
		}
		if s.p.Boundary == Periodic {
			return nx - 1
		}
		return 0
	}
	xp := func(i int) int {
		if i < nx-1 {
			return i + 1
		}
		if s.p.Boundary == Periodic {
			return 0
		}
		return nx - 1
	}

	for j := 0; j < s.rows; j++ {
		for i := 0; i < nx; i++ {
			il, ir := xm(i), xp(i)
			c, cu, cd := s.idx(j, i), s.idx(j-1, i), s.idx(j+1, i)
			cl, cr := s.idx(j, il), s.idx(j, ir)

			uL, uR := s.u[cl], s.u[cr]
			// Reflective x edges negate the normal (u) velocity.
			if s.p.Boundary == Reflective {
				if i == 0 {
					uL = -s.u[c]
				}
				if i == nx-1 {
					uR = -s.u[c]
				}
			}
			etaL, etaR := s.eta[cl], s.eta[cr]
			if s.p.Boundary == Reflective {
				if i == 0 {
					etaL = s.eta[c]
				}
				if i == nx-1 {
					etaR = s.eta[c]
				}
			}

			avgEta := 0.25 * (etaL + etaR + s.eta[cu] + s.eta[cd])
			avgU := 0.25 * (uL + uR + s.u[cu] + s.u[cd])
			avgV := 0.25 * (s.v[cl] + s.v[cr] + s.v[cu] + s.v[cd])

			ne[c] = avgEta - 0.5*hl*((uR-uL)+(s.v[cd]-s.v[cu]))
			nu[c] = avgU - 0.5*gl*(etaR-etaL)
			nv[c] = avgV - 0.5*gl*(s.eta[cd]-s.eta[cu])
		}
	}
	s.eta, s.u, s.v = ne, nu, nv
	s.iter++
}

// Mass returns the slab's total surface displacement Ση·Dx².
func (s *Solver) Mass() float64 {
	var sum float64
	for j := 0; j < s.rows; j++ {
		for i := 0; i < s.p.NX; i++ {
			sum += s.eta[s.idx(j, i)]
		}
	}
	return sum * s.p.Dx * s.p.Dx
}

// Energy returns the slab's total energy ½Σ(g·η² + H(u²+v²))·Dx².
func (s *Solver) Energy() float64 {
	var sum float64
	for j := 0; j < s.rows; j++ {
		for i := 0; i < s.p.NX; i++ {
			c := s.idx(j, i)
			sum += s.p.G*s.eta[c]*s.eta[c] + s.p.Depth*(s.u[c]*s.u[c]+s.v[c]*s.v[c])
		}
	}
	return 0.5 * sum * s.p.Dx * s.p.Dx
}

// Snapshot serializes the interior fields and iteration counter.
func (s *Solver) Snapshot() ([]byte, error) {
	nx := s.p.NX
	out := make([]byte, 8+3*s.rows*nx*8)
	binary.LittleEndian.PutUint64(out[:8], uint64(s.iter))
	off := 8
	for _, field := range [][]float64{s.eta, s.u, s.v} {
		for j := 0; j < s.rows; j++ {
			for i := 0; i < nx; i++ {
				binary.LittleEndian.PutUint64(out[off:], math.Float64bits(field[s.idx(j, i)]))
				off += 8
			}
		}
	}
	return out, nil
}

// Restore replaces the interior fields and iteration counter from a
// snapshot. Ghost rows are cleared; they are refreshed before the next
// step by the exchange.
func (s *Solver) Restore(b []byte) error {
	nx := s.p.NX
	want := 8 + 3*s.rows*nx*8
	if len(b) != want {
		return fmt.Errorf("tsunami: snapshot is %d bytes, want %d", len(b), want)
	}
	s.iter = int(binary.LittleEndian.Uint64(b[:8]))
	off := 8
	for _, field := range [][]float64{s.eta, s.u, s.v} {
		for k := range field {
			field[k] = 0
		}
		for j := 0; j < s.rows; j++ {
			for i := 0; i < nx; i++ {
				field[s.idx(j, i)] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
				off += 8
			}
		}
	}
	return nil
}
