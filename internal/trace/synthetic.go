package trace

import "fmt"

// Synthetic communication-matrix generation. The paper's traces come from
// instrumented tsunami runs, which caps the evaluable scale at whatever the
// simulated MPI runtime can execute (§V stops at 1024 ranks). The patterns
// those traces exhibit — nearest-neighbor ghost exchange from a 1-D slab or
// 2-D block domain decomposition — are regular enough to generate directly
// in CSR form, so clustering and reliability evaluation can run at 100k+
// ranks without a trace run.

// SyntheticPattern selects the generated communication structure.
type SyntheticPattern int

const (
	// Stencil1D is a 1-D slab decomposition: rank r exchanges ghost rows
	// with r-1 and r+1 — the tsunami application's pattern.
	Stencil1D SyntheticPattern = iota
	// Stencil2D is a 2-D block decomposition on a Width-wide grid: rank r
	// exchanges with r±1 (same grid row) and r±Width (adjacent rows).
	Stencil2D
)

// SyntheticOptions tunes the generated trace. The zero value produces a
// 1-D stencil with the tsunami run's default volume.
type SyntheticOptions struct {
	// Pattern is the communication structure (default Stencil1D).
	Pattern SyntheticPattern
	// Width is the grid width for Stencil2D; 0 derives a near-square grid.
	// Ignored for Stencil1D.
	Width int
	// Iterations is the number of exchange rounds (default 100, the
	// paper's traced iteration count).
	Iterations int
	// BytesPerMsg is the payload of one neighbor exchange message
	// (default 1536 = 3 ghost rows × 64 columns × 8 bytes, matching the
	// quick-scale tsunami ghost exchange).
	BytesPerMsg int64
}

func (o *SyntheticOptions) normalize(n int) error {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.BytesPerMsg <= 0 {
		o.BytesPerMsg = 1536
	}
	if o.Pattern == Stencil2D {
		if o.Width == 0 {
			w := 1
			for (w<<1)*(w<<1) <= n {
				w <<= 1
			}
			o.Width = w
		}
		if o.Width <= 0 || o.Width > n {
			return fmt.Errorf("trace: synthetic grid width %d out of range 1..%d", o.Width, n)
		}
	}
	return nil
}

// Synthetic generates a deterministic communication matrix for n ranks
// directly in CSR form — O(n) memory and time, no message-passing run
// required. Both directions of every exchange are recorded, mirroring what
// a Recorder would capture from a real stencil run.
func Synthetic(n int, opts SyntheticOptions) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: synthetic trace needs at least 1 rank, got %d", n)
	}
	if err := opts.normalize(n); err != nil {
		return nil, err
	}
	bytes := opts.BytesPerMsg * int64(opts.Iterations)
	msgs := int64(opts.Iterations)

	// The stencil's pair count is known in closed form, so the three value
	// arrays are sized once instead of grown by append.
	var nnz int
	w := opts.Width
	switch opts.Pattern {
	case Stencil2D:
		// r±w exists for n-w ranks each; r-1 and r+1 exist wherever r (or
		// r+1) is not the first column of a grid row.
		nnz = 2*max(n-w, 0) + 2*(n-(n+w-1)/w)
	default: // Stencil1D
		nnz = 2 * (n - 1)
	}
	c := &CSR{
		n:      n,
		rowPtr: make([]int64, n+1),
		col:    make([]int32, 0, nnz),
		bytes:  make([]int64, 0, nnz),
		msgs:   make([]int64, 0, nnz),
	}
	add := func(d int) {
		c.col = append(c.col, int32(d))
		c.bytes = append(c.bytes, bytes)
		c.msgs = append(c.msgs, msgs)
	}
	for r := 0; r < n; r++ {
		// Neighbors are added in ascending column order.
		if opts.Pattern == Stencil2D {
			if r-w >= 0 {
				add(r - w)
			}
			if r%w != 0 {
				add(r - 1)
			}
			if r%w != w-1 && r+1 < n {
				add(r + 1)
			}
			if r+w < n {
				add(r + w)
			}
		} else {
			if r > 0 {
				add(r - 1)
			}
			if r+1 < n {
				add(r + 1)
			}
		}
		c.rowPtr[r+1] = int64(len(c.col))
	}
	c.totalBytes = bytes * int64(len(c.col))
	c.totalMsgs = msgs * int64(len(c.col))
	return c, nil
}
