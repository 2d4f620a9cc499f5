package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hierclust/internal/erasure"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
)

// Evaluation scores a clustering on the paper's four dimensions (§III).
type Evaluation struct {
	Name string
	// LoggedFraction is the share of traffic bytes crossing L1 clusters
	// (message-logging overhead, dimension 1).
	LoggedFraction float64
	// RecoveryFraction is the expected share of processes restarted after
	// a single-node failure (recovery cost, dimension 2).
	RecoveryFraction float64
	// EncodeSecondsPerGB is the modeled time to erasure-code 1 GB per
	// process at the largest group size (encoding time, dimension 3).
	EncodeSecondsPerGB float64
	// CatastropheProb is the probability that a failure is unrecoverable
	// from node-level storage (reliability, dimension 4).
	CatastropheProb float64
}

// Baseline is the paper's §III requirement envelope: any clustering
// exceeding one of these maxima "is not suitable for FT in future large
// scale HPC systems".
type Baseline struct {
	MaxLoggedFraction   float64
	MaxRecoveryFraction float64
	MaxEncodeSecPerGB   float64
	MaxCatastropheProb  float64
}

// DefaultBaseline returns the paper's numbers: ≤20% messages logged, ≤20%
// processes restarted, ≤1 minute/GB encoding, at most one in (several)
// thousand failures unrecoverable.
func DefaultBaseline() Baseline {
	return Baseline{
		MaxLoggedFraction:   0.20,
		MaxRecoveryFraction: 0.20,
		MaxEncodeSecPerGB:   60,
		MaxCatastropheProb:  1e-3,
	}
}

// EvalOptions tunes Evaluate's reliability-model execution without changing
// its numbers: results are bit-identical at any worker count.
type EvalOptions struct {
	// Workers bounds the reliability model's worker pool (0 = GOMAXPROCS).
	Workers int
	// Ctx, when non-nil, cancels the evaluation: the reliability model's
	// enumeration and sampling loops observe it within a bounded number of
	// iterations and EvaluateOpts returns Ctx.Err(). An uncancelled
	// evaluation is bit-identical with or without a context.
	Ctx context.Context
}

// Evaluate scores a clustering against a traced communication matrix
// (dense or sparse), a placement, and a failure mix.
func Evaluate(c *Clustering, m trace.Comm, p *topology.Placement, mix reliability.Mix) (*Evaluation, error) {
	return EvaluateOpts(c, m, p, mix, EvalOptions{})
}

// EvaluateOpts is Evaluate with execution options.
func EvaluateOpts(c *Clustering, m trace.Comm, p *topology.Placement, mix reliability.Mix, opts EvalOptions) (*Evaluation, error) {
	ctx := cmp.Or(opts.Ctx, context.Background())
	var pr Profile
	if err := pr.Init(ctx, c, p); err != nil {
		return nil, err
	}
	if m.Ranks() != p.NumRanks() {
		return nil, fmt.Errorf("core: matrix covers %d ranks, placement %d", m.Ranks(), p.NumRanks())
	}
	e, err := pr.Evaluate(ctx, mix, opts.Workers)
	if err != nil {
		return nil, err
	}
	if e.LoggedFraction, err = m.LoggedFraction(c.L1); err != nil { // c is validated by Init
		return nil, err
	}
	return &e, nil
}

// Profile is a clustering's scores but the logged fraction, the one that
// reads the trace (m.LoggedFraction(c.L1), the caller's): recovery and
// encode cost read the placement alone, and P(catastrophe) reads the mix
// only as weights over conditionals the reliability profile remembers — so
// a sweep scores each clustering once and weighs it per mix. The zero value
// needs Init; after Init it is safe for concurrent use and must not be copied.
// Init may run again once no reader remains: it scores the new clustering
// in the memory the last Init left, so a profile that has scored a shape
// scores it again without allocating (ClusteringBuf carries one).
type Profile struct {
	scores Evaluation // LoggedFraction and CatastropheProb unset
	rel    reliability.Profile
	setup  scratch
}

// scratch is the set-up memory a Profile keeps for its next Init:
// Validate's rank bitset, the cluster sizes and recovery's stamp. A zero
// scratch allocates what it needs.
type scratch struct {
	seen         []uint64
	sizes, stamp []int32
}

// Init validates c against p, scores it and reads its encoding groups'
// member lists straight into the reliability model's flat form. It retains
// that form, not c or p: under the product form (every strategy here) one
// owner per node and one constraint per distinct span; for a layout the
// reduction rejects, 8 bytes per member plus per-node indexes.
func (pr *Profile) Init(ctx context.Context, c *Clustering, p *topology.Placement) error {
	if err := c.validate(p.NumRanks(), &pr.setup.seen); err != nil {
		return err
	}
	rec := recoveryFraction(c, p, nodeUnit, &pr.setup) // c is validated above
	if err := ctx.Err(); err != nil {
		return err
	}
	pr.scores = Evaluation{Name: c.Name, RecoveryFraction: rec,
		EncodeSecondsPerGB: erasure.ModelEncodeSeconds(c.MaxGroupSize(), 1e9)}
	return pr.rel.InitRanks(p, c.Groups)
}

// Evaluate weighs the profile with a failure mix, the reliability model's
// loops observing ctx on up to workers goroutines (0 = GOMAXPROCS); scores
// are bit-identical at any worker count and in any order of mixes. The
// caller fills in LoggedFraction.
func (pr *Profile) Evaluate(ctx context.Context, mix reliability.Mix, workers int) (Evaluation, error) {
	pcat, err := pr.rel.CatastropheProb(ctx, mix, workers)
	if err != nil {
		return Evaluation{}, err
	}
	e := pr.scores
	e.CatastropheProb = pcat
	return e, nil
}

// RecoveryFractionProcess computes the expected fraction of ranks that
// restart after a uniformly random single-process failure: exactly the
// failed process's L1 cluster rolls back. This is the metric behind the
// paper's Table II numbers for the consecutive-rank clusterings (e.g. 0.7%
// for size-guided-8 = one 8-rank cluster of 1024).
func RecoveryFractionProcess(c *Clustering) (float64, error) {
	if len(c.L1) == 0 {
		return 0, nil
	}
	sizes := c.clusterSizes(nil)
	var total float64
	for _, s := range sizes {
		// a failure of any of the s members restarts s ranks
		total += float64(s) * float64(s)
	}
	n := float64(len(c.L1))
	return total / (n * n), nil
}

// RecoveryFraction computes the expected fraction of ranks that restart
// after a uniformly random single-node failure: all ranks of every L1
// cluster touched by the failed node roll back. Node failures are the
// dominant unit in the paper's failure observations, and this is the metric
// that exposes the distributed clustering's restart amplification (Fig. 4c).
//
// The per-node distinct-cluster scan uses an epoch-stamped scratch array
// over the placement's rank spans — no per-node map allocations, which
// dominated evaluation time on 10k+-node machines.
func RecoveryFraction(c *Clustering, p *topology.Placement) (float64, error) {
	if err := c.Validate(p.NumRanks()); err != nil {
		return 0, err
	}
	return recoveryFraction(c, p, nodeUnit, new(scratch)), nil
}

// The failure units recoveryFraction averages over, as node-id masks: one
// node, or both nodes 2i and 2i+1 of a power-supply pair.
const nodeUnit, pairUnit = ^topology.NodeID(0), ^topology.NodeID(1)

// recoveryFraction is RecoveryFraction for a clustering the caller has
// already validated against p (Profile.Init validates once for all four
// scores), over failure units of the given mask, with its cluster sizes and
// stamp in sc's memory. Used nodes ascend, so a unit's nodes are adjacent
// and units are visited in ascending order: the accumulated expectation is
// deterministic.
func recoveryFraction(c *Clustering, p *topology.Placement, unit topology.NodeID, sc *scratch) float64 {
	sizes := c.clusterSizes(sc.sizes)
	nused := p.NumUsed()
	if nused == 0 || p.NumRanks() == 0 {
		return 0
	}
	stamp := slices.Grow(sc.stamp[:0], len(sizes))[:len(sizes)]
	clear(stamp)
	sc.sizes, sc.stamp = sizes, stamp
	epoch := int32(0)
	var total float64
	units := 0
	for i := 0; i < nused; units++ {
		base := p.UsedNode(i) & unit
		epoch++
		restarted := 0
		for ; i < nused && p.UsedNode(i)&unit == base; i++ {
			for pos, end := p.Span(p.UsedNode(i)); pos < end; pos++ {
				if id := c.L1[p.RankAt(pos)]; stamp[id] != epoch {
					stamp[id] = epoch
					restarted += int(sizes[id])
				}
			}
		}
		total += float64(restarted) / float64(p.NumRanks())
	}
	return total / float64(units)
}

// RecoveryFractionPair computes the expected fraction of ranks restarted
// after a power-supply-pair failure (both nodes 2i and 2i+1 die). Pair-
// aligned L1 clusters contain such failures in one cluster; straddling
// clusterings pay for two.
func RecoveryFractionPair(c *Clustering, p *topology.Placement) (float64, error) {
	if err := c.Validate(p.NumRanks()); err != nil {
		return 0, err
	}
	return recoveryFraction(c, p, pairUnit, new(scratch)), nil
}

// Meets reports whether the evaluation satisfies every baseline bound, and
// the list of violated dimensions (nil when none is).
func (e *Evaluation) Meets(b Baseline) (bool, []string) {
	var found [4]string
	n := 0
	for k, d := range [4][2]float64{{e.LoggedFraction, b.MaxLoggedFraction}, {e.RecoveryFraction, b.MaxRecoveryFraction},
		{e.EncodeSecondsPerGB, b.MaxEncodeSecPerGB}, {e.CatastropheProb, b.MaxCatastropheProb}} {
		if d[0] > d[1] {
			found[n], n = violation(k, d[0], d[1]), n+1
		}
	}
	if n == 0 {
		return true, nil
	}
	return false, slices.Clone(found[:n])
}

// violationForms word each dimension's violation, in Figure 5c order:
// "message logging %.1f%% > %.0f%%", "recovery cost %.1f%% > %.0f%%",
// "encoding %.0fs/GB > %.0fs/GB" and "P(catastrophic) %.2g > %.2g", the
// value and the bound scaled, then printed as strconv's fmt at their prec.
var violationForms = [4]struct {
	label, unit     string
	scale           float64
	fmt             byte
	prec, boundPrec int
}{
	{"message logging ", "%", 100, 'f', 1, 0},
	{"recovery cost ", "%", 100, 'f', 1, 0},
	{"encoding ", "s/GB", 1, 'f', 0, 0},
	{"P(catastrophic) ", "", 1, 'g', 2, 2},
}

// violation words dimension k's value v over its bound in one allocation,
// the string.
func violation(k int, v, bound float64) string {
	f := &violationForms[k]
	var buf [64]byte
	b := append(strconv.AppendFloat(append(buf[:0], f.label...), v*f.scale, f.fmt, f.prec, 64), f.unit...)
	b = append(strconv.AppendFloat(append(b, " > "...), bound*f.scale, f.fmt, f.boundPrec, 64), f.unit...)
	return string(b)
}

// Normalized returns the four dimensions scaled by the baseline maxima
// (1.0 = exactly at the requirement), the radial coordinates of the
// paper's Figure 5c.
func (e *Evaluation) Normalized(b Baseline) [4]float64 {
	return [4]float64{
		e.LoggedFraction / b.MaxLoggedFraction,
		e.RecoveryFraction / b.MaxRecoveryFraction,
		e.EncodeSecondsPerGB / b.MaxEncodeSecPerGB,
		e.CatastropheProb / b.MaxCatastropheProb,
	}
}

// String renders the evaluation as a Table-II style row.
func (e *Evaluation) String() string {
	return fmt.Sprintf("%-20s log=%5.1f%% recovery=%5.2f%% encode=%6.1fs/GB P(cat)=%.2g",
		e.Name, e.LoggedFraction*100, e.RecoveryFraction*100, e.EncodeSecondsPerGB, e.CatastropheProb)
}

// DimensionNames labels the four axes in Figure 5c order.
func DimensionNames() [4]string {
	return [4]string{"msg-logging", "recovery-cost", "encoding-time", "reliability"}
}

// CompareTable renders evaluations as an aligned ASCII table (Table II).
func CompareTable(evals []*Evaluation, b Baseline) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %12s %12s %14s %12s %s\n",
		"clustering", "msg.log", "recovery", "encode(1GB)", "P(cat)", "baseline")
	for _, e := range evals {
		ok, _ := e.Meets(b)
		verdict := "FAIL"
		if ok {
			verdict = "ok"
		}
		fmt.Fprintf(&sb, "%-20s %11.1f%% %11.2f%% %13.1fs %12.2g %s\n",
			e.Name, e.LoggedFraction*100, e.RecoveryFraction*100,
			e.EncodeSecondsPerGB, e.CatastropheProb, verdict)
	}
	return sb.String()
}
