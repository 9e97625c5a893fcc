// Package derand implements the distributed method of conditional
// expectations — the derandomization engine of the reproduced paper.
//
// A randomized phase draws a seed for a pairwise-independent hash family and
// succeeds in expectation: E[Φ(seed)] is good, where Φ is a pessimistic
// estimator of the phase's progress. The deterministic version fixes the
// seed bit-chunk by bit-chunk: for each candidate extension of the next z
// bits, every machine computes its local contribution to the conditional
// expectation E[Φ | prefix, extension] exactly (the hash package provides
// closed-form conditional laws); the model's Reduction sums the
// contributions per extension, the best extension is kept, and every
// machine learns it. By induction the fully fixed seed satisfies
// Φ(seed) ≤ E[Φ] (for minimization) — a per-phase guarantee that holds with
// certainty, not merely with high probability. The initial E[Φ] costs no
// pass of its own: it is the first chunk's empty-character coefficient.
//
// Every conditional expectation the estimators sum is a dyadic rational, so
// they score in int64 units of 2^−u for a u fixed per phase, and every
// reduction sums with wrapping integer addition: the same bits in any order,
// on any machine partition.
//
// SelectSeed is the one seed search for both models; only the Reduction
// differs. In MPC (see MPC) a chunk is one all-gather of 2^z words per
// machine, after which every machine holds the sums and takes the same
// argmin, so a seed of L bits costs ⌈L/z⌉ rounds; z is clamped to
// ⌊log₂(S/M)⌋ so the M·2^z words fit one machine, and with z = Θ(log n) the
// whole seed is fixed in O(1) rounds in the near-linear-memory regime — the
// observation behind the paper's round bounds. In the congested clique (see
// Clique) a chunk of any width up to log₂ n is summed in O(1) rounds, one
// aggregator node per character of the spectrum.
//
// A machine scores all 2^z extensions of a chunk in one call (ChunkEval)
// as a spectrum: every conditional probability the mark-tracking
// estimators sum is an affine combination of characters χ_S(e) of the
// chunk value e, so one pass over a machine's items accumulates the
// coefficients, in O(items) instead of O(items·2^z). The transform is
// linear and the sums are exact, so the machines sum their spectra and the
// reduction evaluates the sum at every e with one Walsh–Hadamard transform
// (see Walsh), in O(z·2^z) per chunk rather than per machine. A spectrum is
// mostly zeros on one clique node, which sends only its nonzero
// coefficients. Direct is the per-extension loop that tests check the
// spectral estimators against; it returns a spectrum too.
package derand

import (
	"fmt"
	"math/bits"

	"github.com/rulingset/mprs/internal/clique"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// Objective says whether smaller or larger estimator values are better.
type Objective int

const (
	// Minimize prefers smaller Φ (e.g. cost − benefit potentials).
	Minimize Objective = iota + 1
	// Maximize prefers larger Φ (e.g. expected progress lower bounds).
	Maximize
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Minimize:
		return "minimize"
	case Maximize:
		return "maximize"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Config tunes the seed-selection procedure.
type Config struct {
	// ChunkBits is z, the number of seed bits fixed per chunk (1 <= z <= 20,
	// after the model's Reduction.MaxChunkBits clamp). Default 8.
	ChunkBits int
	// Objective selects the optimization direction; default Minimize.
	Objective Objective
	// AlignTo, when positive, truncates chunks at multiples of AlignTo so a
	// chunk never straddles an alignment boundary. The mark-tracking
	// estimators set it to the hash family's per-linear-bit seed segment
	// width, which keeps at most one segment partially fixed at any time.
	AlignTo int
	// OnChunk, when non-nil, is called once before each chunk's candidate
	// extensions are evaluated, with the seed in its committed state. It lets
	// estimators refresh incremental caches keyed on the fixed prefix.
	OnChunk func(s *hash.Seed, start, width int)
}

// withDefaults fills in defaults, clamps ChunkBits to the model's bound
// (when positive) and validates the result.
func (cfg Config) withDefaults(maxChunkBits int) (Config, error) {
	if cfg.ChunkBits == 0 {
		cfg.ChunkBits = 8
	}
	if maxChunkBits > 0 && cfg.ChunkBits > maxChunkBits {
		cfg.ChunkBits = maxChunkBits
	}
	if cfg.ChunkBits < 1 || cfg.ChunkBits > 20 {
		return cfg, fmt.Errorf("derand: chunk bits %d out of [1,20]", cfg.ChunkBits)
	}
	if cfg.Objective == 0 {
		cfg.Objective = Minimize
	}
	if cfg.Objective != Minimize && cfg.Objective != Maximize {
		return cfg, fmt.Errorf("derand: unknown objective %v", cfg.Objective)
	}
	return cfg, nil
}

// ChunkEval computes the spectrum of a machine's exact local contribution
// to the conditional expectations of one chunk: the sum of the estimator
// terms owned by the machine's items [lo, hi) (its vertices/edges),
// conditioned on the seed's committed prefix (which ends at start) plus
// the chunk [start, start+width) fixed to e, is a function of the
// extension e < 2^width = len(out), and out[S] is its coefficient at the
// character χ_S(e) = (−1)^{|S∧e|}. Walsh(out) gives the value at every e,
// and out[0], the mean over the equally likely extensions, is the same
// terms' E[Φ | prefix]. s is shared and read-only; implementations must
// only read state belonging to their items.
type ChunkEval func(lo, hi int, s *hash.Seed, start, width int, out []int64)

// LocalEval computes a machine's exact local contribution to E[Φ | s], the
// seed's fixed prefix; Direct turns it into a ChunkEval.
type LocalEval func(lo, hi int, s *hash.Seed) int64

// Direct returns the ChunkEval that calls eval once per extension, on a
// private copy of s with the chunk written and counted as fixed — 2^width
// passes over the items — and turns the values into their spectrum: Walsh
// of the values is 2^width times it. It is the per-extension reference
// that tests compare the spectral estimators against, and it panics if a
// coefficient is not an integer number of eval's units.
func Direct(eval LocalEval) ChunkEval {
	return func(lo, hi int, s *hash.Seed, start, width int, out []int64) {
		local := s.Clone()
		local.SetFixed(start + width)
		for e := range out {
			local.SetChunk(start, width, uint64(e))
			out[e] = eval(lo, hi, local)
		}
		Walsh(out)
		for S, x := range out {
			if out[S] = x >> uint(width); out[S]<<uint(width) != x {
				panic(fmt.Sprintf("derand: character %d of a %d-bit chunk has coefficient %d/2^%d, not an integer", S, width, x, width))
			}
		}
	}
}

// Walsh applies the unnormalized Walsh–Hadamard transform to x in place:
// afterwards x[e] = Σ_S x_old[S]·(−1)^{|S∧e|}. len(x) must be a power of
// two. Given the character coefficients of a function of the chunk value,
// it yields the function's value at every chunk value in O(z·2^z); applied
// twice it multiplies by 2^z. The additions wrap, so a result that fits
// int64 is exact whatever the intermediate values.
func Walsh(x []int64) {
	for h := 1; h < len(x); h <<= 1 {
		for i := 0; i < len(x); i += h << 1 {
			for k := i; k < i+h; k++ {
				a, b := x[k], x[k+h]
				x[k], x[k+h] = a+b, a-b
			}
		}
	}
}

// Trace records the conditional-expectation trajectory of one seed
// selection; the conditional expectations are non-increasing (Minimize) or
// non-decreasing (Maximize) along Values — the method's defining guarantee,
// asserted by tests and by experiment T6.
type Trace struct {
	// Initial is E[Φ] with no bits fixed: the empty-character coefficient
	// of the first chunk's summed spectrum.
	Initial int64
	// Values[i] is E[Φ | first i chunks fixed]; the last entry is the exact
	// realized Φ of the selected seed.
	Values []int64
	// Steps is the number of chunks fixed (one reduction and one pick each).
	Steps int
}

// Final returns the realized estimator value of the selected seed.
func (t Trace) Final() int64 {
	if len(t.Values) == 0 {
		return t.Initial
	}
	return t.Values[len(t.Values)-1]
}

// Reduction is the one thing the seed search needs from a model: how the
// machines' local estimator spectra are summed and how the chosen extension
// reaches every machine. MPC and Clique are its two implementations.
type Reduction interface {
	// Span and CurrentSpan label the rounds that follow (see mpc.Cluster.Span).
	Span(name string)
	CurrentSpan() string
	// MaxChunkBits bounds the chunk width z; 0 means no model bound.
	MaxChunkBits() int
	// Extensions returns, for each extension e < 2^width of the chunk at
	// [start, start+width), the sum over all machines of eval's value for e
	// (the Walsh transform of their summed spectra), and E[Φ | prefix], the
	// summed spectra's empty-character coefficient. totals is valid until
	// the next Extensions call.
	Extensions(s *hash.Seed, start, width int, eval ChunkEval) (totals []int64, expect int64, err error)
	// Pick distributes the chosen extension to every machine.
	Pick(e int) error
}

// SelectSeed deterministically fixes all free bits of s by the method of
// conditional expectations, using eval as the machine-local estimator and
// r's collectives for coordination. On return s is fully fixed and the
// realized Φ(s) is at least as good as the initial expectation.
func SelectSeed(r Reduction, s *hash.Seed, cfg Config, eval ChunkEval) (Trace, error) {
	cfg, err := cfg.withDefaults(r.MaxChunkBits())
	if err != nil {
		return Trace{}, err
	}
	// Seed selection is its own observable phase: attribute its collectives
	// to the "seed-search" span, restoring the caller's span on return.
	caller := r.CurrentSpan()
	r.Span("seed-search")
	defer r.Span(caller)
	var trace Trace

	for s.Fixed() < s.Total() {
		start := s.Fixed()
		width := cfg.ChunkBits
		if rem := s.Total() - start; width > rem {
			width = rem
		}
		if cfg.AlignTo > 0 {
			if toBoundary := cfg.AlignTo - start%cfg.AlignTo; width > toBoundary {
				width = toBoundary
			}
		}
		if cfg.OnChunk != nil {
			cfg.OnChunk(s, start, width)
		}
		totals, expect, err := r.Extensions(s, start, width, eval)
		if err != nil {
			return trace, err
		}
		if trace.Steps == 0 {
			// The initial expectation, kept for the guarantee check.
			trace.Initial = expect
		}
		best := 0
		for e := 1; e < len(totals); e++ {
			if better(cfg.Objective, totals[e], totals[best]) {
				best = e
			}
		}
		if err := r.Pick(best); err != nil {
			return trace, err
		}
		s.SetChunk(start, width, uint64(best))
		s.Commit(width)
		trace.Values = append(trace.Values, totals[best])
		trace.Steps++
	}
	return trace, nil
}

// MPC returns the MPC reduction: each chunk is one all-reduce (derand/eval)
// of every machine's 2^z spectrum coefficients, after which every machine
// holds the same summed spectrum, transforms it into the per-extension sums
// and takes the same argmin, so the pick costs no round.
func MPC(c *mpc.Cluster) Reduction {
	return &mpcReduction{Cluster: c, scratch: make([][]int64, c.Machines())}
}

type mpcReduction struct {
	*mpc.Cluster
	// scratch[m] is machine m's ChunkEval output, reused across chunks. It
	// is copied into each all-reduce's fresh payload, never sent itself.
	scratch [][]int64
	// totals holds the summed spectrum, transformed in place into the
	// per-extension sums Extensions returns; reused across chunks.
	totals []int64
}

// MaxChunkBits clamps z to ⌊log₂(S/M)⌋, and to at least 1: a chunk's
// all-gather then sends and receives M·2^z words per machine, within one
// machine's budget S. It is the MPC twin of the clique's ⌊log₂ n⌋ clamp.
func (r *mpcReduction) MaxChunkBits() int {
	return max(1, bits.Len(uint(r.Budget()/r.Machines()))-1)
}

// Extensions all-reduces every machine's 2^width spectrum coefficients,
// sent as their two's-complement words, and transforms their sum once.
func (r *mpcReduction) Extensions(s *hash.Seed, start, width int, eval ChunkEval) ([]int64, int64, error) {
	nExt := 1 << uint(width)
	sums, err := r.AllReduceSumUint("derand/eval", func(x *mpc.Ctx) []uint64 {
		coef := r.scratch[x.Machine]
		if cap(coef) < nExt {
			coef = make([]int64, nExt)
			r.scratch[x.Machine] = coef
		}
		coef = coef[:nExt]
		eval(x.Lo, x.Hi, s, start, width, coef)
		out := make([]uint64, nExt)
		for S, c := range coef {
			out[S] = uint64(c)
		}
		return out
	})
	if err != nil {
		return nil, 0, err
	}
	if cap(r.totals) < nExt {
		r.totals = make([]int64, nExt)
	}
	totals := r.totals[:nExt]
	for S, w := range sums {
		totals[S] = int64(w)
	}
	expect := totals[0]
	Walsh(totals)
	return totals, expect, nil
}

// Pick costs no round: every machine took the same argmin of the same sums.
func (*mpcReduction) Pick(int) error { return nil }

// Clique returns the congested-clique reduction on a cluster with one node
// per item: each chunk is one ScatterAggregate ("chunk", two rounds for
// any width, every nonzero spectrum coefficient on its own pair link) and
// the pick is one BroadcastWord ("chunk/pick"). The chunk width is clamped
// to ⌊log₂ n⌋ so that an aggregator node exists for every character.
func Clique(c *clique.Cluster) Reduction {
	return &cliqueReduction{Cluster: c, expect: make([]int64, c.N())}
}

type cliqueReduction struct {
	*clique.Cluster
	// expect[v] is node v's E[Φ | prefix] at the last chunk: its spectrum's
	// empty-character coefficient.
	expect []int64
}

func (r *cliqueReduction) MaxChunkBits() int { return bits.Len(uint(r.N())) - 1 }

// Extensions sums the node spectra per character on the aggregators and
// transforms the sum once. The empty character never goes on the wire:
// it adds the same constant to every extension, which moves neither the
// argmin nor its smallest-e tie-break. The host sums it, as the trace's
// E[Φ | prefix], so the totals are the exact per-extension sums.
func (r *cliqueReduction) Extensions(s *hash.Seed, start, width int, eval ChunkEval) ([]int64, int64, error) {
	totals, err := r.ScatterAggregate("chunk", 1<<uint(width), func(v int, coef []int64) {
		eval(v, v+1, s, start, width, coef)
		r.expect[v], coef[0] = coef[0], 0
	})
	if err != nil {
		return nil, 0, err
	}
	expect := sum(r.expect)
	totals[0] = expect
	Walsh(totals)
	return totals, expect, nil
}

func (r *cliqueReduction) Pick(e int) error { return r.BroadcastWord("chunk/pick", uint64(e)) }

// sum returns the wrapping sum of xs.
func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// better reports whether candidate improves on incumbent under obj, with
// strict improvement required so ties resolve to the smallest extension.
func better(obj Objective, candidate, incumbent int64) bool {
	if obj == Minimize {
		return candidate < incumbent
	}
	return candidate > incumbent
}
