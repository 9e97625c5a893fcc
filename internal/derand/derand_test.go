package derand

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/rulingset/mprs/internal/clique"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// scaled returns the probability p in int64 units of 2^−u (exact for the
// dyadic probabilities of hash.Bits).
func scaled(p float64, u int) int64 { return int64(math.Ldexp(p, u)) }

func newCluster(t *testing.T, machines, n int) *mpc.Cluster {
	t.Helper()
	c, err := mpc.NewCluster(mpc.Config{Machines: machines}, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	c := newCluster(t, 1, 4)
	fam, err := hash.NewBits(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(lo, hi int, s *hash.Seed) int64 { return 0 }
	if _, err := SelectSeed(MPC(c), fam.NewSeed(), Config{ChunkBits: -1}, Direct(eval)); err == nil {
		t.Error("chunk bits -1 accepted")
	}
	if _, err := SelectSeed(MPC(c), fam.NewSeed(), Config{Objective: Objective(9)}, Direct(eval)); err == nil {
		t.Error("bad objective accepted")
	}
}

// TestMaximizeMarks uses the simplest estimator: maximize the expected number
// of marked vertices, in units of 2^−j. The optimum is marking everything;
// conditional expectations must find a seed achieving at least the
// expectation n·2^-j, and the trajectory never falls.
func TestMaximizeMarks(t *testing.T) {
	const n, j = 40, 2
	for _, machines := range []int{1, 4} {
		for _, chunk := range []int{1, 3, 8} {
			c := newCluster(t, machines, n)
			fam, err := hash.NewBits(n, j)
			if err != nil {
				t.Fatal(err)
			}
			seed := fam.NewSeed()
			eval := func(lo, hi int, s *hash.Seed) int64 {
				var sum int64
				for v := lo; v < hi; v++ {
					sum += scaled(fam.MarkProb(s, v), j)
				}
				return sum
			}
			trace, err := SelectSeed(MPC(c), seed, Config{ChunkBits: chunk, Objective: Maximize}, Direct(eval))
			if err != nil {
				t.Fatal(err)
			}
			if seed.Fixed() != seed.Total() {
				t.Fatalf("seed not fully fixed")
			}
			if trace.Initial != n {
				t.Fatalf("initial expectation = %d units, want %d", trace.Initial, n)
			}
			// Count realized marks; must be >= expectation (guarantee).
			realized := int64(0)
			for v := 0; v < n; v++ {
				if fam.MarkProb(seed, v) == 1 {
					realized++
				}
			}
			if realized<<j < n {
				t.Fatalf("machines=%d chunk=%d: realized %d < expectation %d·2^-%d", machines, chunk, realized, n, j)
			}
			if trace.Final() != realized<<j {
				t.Fatalf("trace final %d units != realized %d", trace.Final(), realized)
			}
			prev := trace.Initial
			for i, v := range trace.Values {
				if v < prev {
					t.Fatalf("trajectory falls at step %d: %+v", i, trace)
				}
				prev = v
			}
		}
	}
}

// TestMinimizePairs minimizes the expected number of concurrently marked
// adjacent pairs on a path, in units of 2^−2j; the realized count must not
// exceed the expectation m·2^-2j, and the trajectory never rises.
func TestMinimizePairs(t *testing.T) {
	const n, j = 30, 2
	c := newCluster(t, 3, n)
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	seed := fam.NewSeed()
	eval := func(lo, hi int, s *hash.Seed) int64 {
		var sum int64
		for v := lo; v < hi && v < n-1; v++ {
			sum += scaled(fam.PairMarkProb(s, v, v+1), 2*j)
		}
		return sum
	}
	trace, err := SelectSeed(MPC(c), seed, Config{ChunkBits: 4, Objective: Minimize}, Direct(eval))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Initial != n-1 {
		t.Fatalf("initial expectation = %d units, want %d", trace.Initial, n-1)
	}
	realized := int64(0)
	for v := 0; v < n-1; v++ {
		if fam.MarkProb(seed, v) == 1 && fam.MarkProb(seed, v+1) == 1 {
			realized++
		}
	}
	if realized<<(2*j) > n-1 {
		t.Fatalf("realized %d pairs > expectation %d·2^-%d", realized, n-1, 2*j)
	}
	prev := trace.Initial
	for i, v := range trace.Values {
		if v > prev {
			t.Fatalf("trajectory rises at step %d: %+v", i, trace)
		}
		prev = v
	}
}

func TestAlignToKeepsChunksInsideSegments(t *testing.T) {
	const n, j = 16, 3
	c := newCluster(t, 2, n)
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	segW := fam.SegWidth()
	seed := fam.NewSeed()
	var boundaries []int
	cfg := Config{
		ChunkBits: segW - 1, // would straddle without alignment
		Objective: Maximize,
		AlignTo:   segW,
		OnChunk: func(s *hash.Seed, start, width int) {
			boundaries = append(boundaries, start, width)
			if start/segW != (start+width-1)/segW {
				t.Errorf("chunk [%d,%d) straddles a segment boundary (segW=%d)", start, start+width, segW)
			}
		},
	}
	eval := func(lo, hi int, s *hash.Seed) int64 {
		var sum int64
		for v := lo; v < hi; v++ {
			sum += scaled(fam.MarkProb(s, v), j)
		}
		return sum
	}
	if _, err := SelectSeed(MPC(c), seed, cfg, Direct(eval)); err != nil {
		t.Fatal(err)
	}
	if len(boundaries) == 0 {
		t.Fatal("OnChunk never called")
	}
	// Chunks must cover the whole seed contiguously.
	at := 0
	for i := 0; i < len(boundaries); i += 2 {
		if boundaries[i] != at {
			t.Fatalf("chunk %d starts at %d, want %d", i/2, boundaries[i], at)
		}
		at += boundaries[i+1]
	}
	if at != seed.Total() {
		t.Fatalf("chunks cover %d bits, want %d", at, seed.Total())
	}
}

func TestSelectSeedDeterministicAcrossMachineCounts(t *testing.T) {
	const n, j = 24, 2
	run := func(machines int) *hash.Seed {
		// S = 1024 words keeps the clamp ⌊log₂(S/M)⌋ above z = 5 at every M.
		c, err := mpc.NewCluster(mpc.Config{Machines: machines, Regime: mpc.RegimeExplicit, MemoryWords: 1024}, n)
		if err != nil {
			t.Fatal(err)
		}
		fam, err := hash.NewBits(n, j)
		if err != nil {
			t.Fatal(err)
		}
		seed := fam.NewSeed()
		eval := func(lo, hi int, s *hash.Seed) int64 {
			var sum int64
			for v := lo; v < hi; v++ {
				sum += int64(v+1) * scaled(fam.MarkProb(s, v), j)
			}
			return sum
		}
		if _, err := SelectSeed(MPC(c), seed, Config{ChunkBits: 5, Objective: Maximize}, Direct(eval)); err != nil {
			t.Fatal(err)
		}
		return seed
	}
	want := run(1)
	for _, m := range []int{2, 3, 7} {
		if got := run(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("machines=%d: seed differs (machine partition must not change the estimator sum)", m)
		}
	}
}

func TestTraceStepsAndRounds(t *testing.T) {
	const n, j = 10, 2
	c := newCluster(t, 2, n)
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	seed := fam.NewSeed()
	eval := func(lo, hi int, s *hash.Seed) int64 { return 0 }
	trace, err := SelectSeed(MPC(c), seed, Config{ChunkBits: 4, Objective: Minimize}, Direct(eval))
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := (seed.Total() + 3) / 4
	if trace.Steps != wantSteps {
		t.Fatalf("steps = %d, want %d", trace.Steps, wantSteps)
	}
	// Rounds: one all-gather per chunk; neither the initial expectation nor
	// the pick costs a round.
	if got := c.Stats().Rounds; got != wantSteps {
		t.Fatalf("rounds = %d, want %d", got, wantSteps)
	}
}

// TestMPCChunkClamp: the MPC reduction clamps z to ⌊log₂(S/M)⌋, so at the
// default width a strict cluster's chunk gathers fit the budget S.
func TestMPCChunkClamp(t *testing.T) {
	const n, j = 400, 3
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(lo, hi int, s *hash.Seed) int64 {
		var sum int64
		for v := lo; v < hi; v++ {
			sum += scaled(fam.MarkProb(s, v), j)
		}
		return sum
	}
	// S = 4n = 1600. The clamp never goes below 1, even when S < 2M.
	for _, tc := range []struct{ machines, clamp, z int }{{1, 10, 8}, {8, 7, 7}, {13, 6, 6}, {400, 2, 2}, {1600, 1, 1}} {
		c, err := mpc.NewCluster(mpc.Config{Machines: tc.machines, Strict: true}, n)
		if err != nil {
			t.Fatal(err)
		}
		r := MPC(c)
		if got := r.MaxChunkBits(); got != tc.clamp {
			t.Fatalf("M=%d: MaxChunkBits = %d, want %d", tc.machines, got, tc.clamp)
		}
		if 2*tc.machines > c.Budget() {
			continue
		}
		seed := fam.NewSeed()
		trace, err := SelectSeed(r, seed, Config{Objective: Maximize}, Direct(eval))
		if err != nil {
			t.Fatalf("M=%d: %v", tc.machines, err)
		}
		if want := (seed.Total() + tc.z - 1) / tc.z; trace.Steps != want {
			t.Fatalf("M=%d: %d steps, want %d at z = %d", tc.machines, trace.Steps, want, tc.z)
		}
	}
}

// TestCliqueReductionMatchesMPC runs one seed search on both reductions. On
// an MPC cluster with one item per machine, both sum the same terms, so the
// traces match; both clamp the chunk width to 5 here, and the clique charges
// two rounds per chunk plus the pick, with no round for the initial
// expectation.
func TestCliqueReductionMatchesMPC(t *testing.T) {
	const n, j = 40, 3 // ⌊log₂ 40⌋ = 5
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(lo, hi int, s *hash.Seed) int64 {
		var sum int64
		for v := lo; v < hi; v++ {
			sum += int64(v%7+1) * scaled(fam.MarkProb(s, v), j)
		}
		return sum
	}
	run := func(r Reduction, chunk int) Trace {
		trace, err := SelectSeed(r, fam.NewSeed(), Config{ChunkBits: chunk, Objective: Maximize}, Direct(eval))
		if err != nil {
			t.Fatal(err)
		}
		return trace
	}
	cc, err := clique.NewCluster(clique.Config{}, n)
	if err != nil {
		t.Fatal(err)
	}
	// S/M = 32, so the MPC clamp ⌊log₂(S/M)⌋ is 5 too.
	mc, err := mpc.NewCluster(mpc.Config{Machines: n, Regime: mpc.RegimeExplicit, MemoryWords: 32 * n}, n)
	if err != nil {
		t.Fatal(err)
	}
	got := run(Clique(cc), 8)
	want := run(MPC(mc), 8)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clique trace %+v, MPC trace %+v", got, want)
	}
	if rounds := cc.Stats().Rounds; rounds != 3*got.Steps {
		t.Fatalf("clique rounds = %d, want %d (scatter, collect, pick per chunk)", rounds, 3*got.Steps)
	}
}

// TestWalsh: the transform of the delta at S is the character row
// e ↦ (−1)^{|S∧e|}, and transforming twice multiplies by 2^z.
func TestWalsh(t *testing.T) {
	for z := 0; z <= 6; z++ {
		size := 1 << uint(z)
		for s := 0; s < size; s++ {
			x := make([]int64, size)
			x[s] = 1
			Walsh(x)
			for e, got := range x {
				want := int64(1)
				if bits.OnesCount(uint(s&e))%2 == 1 {
					want = -1
				}
				if got != want {
					t.Fatalf("z=%d: Walsh(δ_%d)[%d] = %v, want %v", z, s, e, got, want)
				}
			}
		}
		orig := make([]int64, size)
		for i := range orig {
			orig[i] = int64(i*i%7) - 3
		}
		x := append([]int64(nil), orig...)
		Walsh(x)
		Walsh(x)
		for i := range x {
			if x[i] != int64(size)*orig[i] {
				t.Fatalf("z=%d: Walsh twice [%d] = %v, want %v", z, i, x[i], int64(size)*orig[i])
			}
		}
	}
}

// TestDirectIsSpectrum: Direct returns the spectrum whose transform is the
// per-extension values, and whose empty-character coefficient is E[Φ |
// prefix], the eval of the unextended prefix.
func TestDirectIsSpectrum(t *testing.T) {
	const n, j = 24, 3
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(lo, hi int, s *hash.Seed) int64 {
		var sum int64
		for v := lo; v < hi; v++ {
			sum += int64(v%5+1) * scaled(fam.MarkProb(s, v), j)
		}
		return sum
	}
	seed := fam.NewSeed()
	seed.SetChunk(0, 3, 5)
	seed.Commit(3)
	for width := 0; width <= 4; width++ {
		coef := make([]int64, 1<<uint(width))
		Direct(eval)(0, n, seed, 3, width, coef)
		if want := eval(0, n, seed); coef[0] != want {
			t.Fatalf("width %d: empty coefficient %d, E[Φ | prefix] %d", width, coef[0], want)
		}
		Walsh(coef)
		local := seed.Clone()
		local.SetFixed(3 + width)
		for e, got := range coef {
			local.SetChunk(3, width, uint64(e))
			if want := eval(0, n, local); got != want {
				t.Fatalf("width %d e=%d: transformed spectrum %d, value %d", width, e, got, want)
			}
		}
	}
	// A value function that is not an integer combination of characters
	// in eval's units has no exact spectrum.
	defer func() {
		if recover() == nil {
			t.Fatal("an inexact spectrum did not panic")
		}
	}()
	calls := 0
	odd := func(_, _ int, _ *hash.Seed) int64 { // 1 at e = 0, 0 at e = 1
		calls++
		return int64(calls % 2)
	}
	Direct(odd)(0, n, seed, 3, 1, make([]int64, 2))
}

// hostReduction is the dense reference the clique reduction is held to: it
// transforms every node's spectrum on the host and sums the values, empty
// character included, and it costs no round.
type hostReduction struct{ n int }

func (hostReduction) Span(string)         {}
func (hostReduction) CurrentSpan() string { return "" }
func (r hostReduction) MaxChunkBits() int { return bits.Len(uint(r.n)) - 1 }
func (hostReduction) Pick(int) error      { return nil }
func (r hostReduction) Extensions(s *hash.Seed, start, width int, eval ChunkEval) ([]int64, int64, error) {
	totals := make([]int64, 1<<uint(width))
	var expect int64
	for v := 0; v < r.n; v++ {
		vals := make([]int64, len(totals))
		eval(v, v+1, s, start, width, vals)
		expect += vals[0]
		Walsh(vals)
		for e, x := range vals {
			totals[e] += x
		}
	}
	return totals, expect, nil
}

// TestCliqueSpectrumSumMatchesDense: the clique reduction, which keeps the
// empty character off the wire and transforms the summed spectrum once,
// returns the totals and E[Φ | prefix] of summing every node's transformed
// values on the host, at every width 1..⌊log₂ n⌋ and across width changes,
// on random sparse spectra with values near ±2^62 so the sums wrap. Its
// scatter rounds carry exactly the nonzero coefficients of the nonempty
// characters, and aggregator 0 hears nothing. A seed search on it gives
// the host's Trace, chunk widths cut short by AlignTo included.
func TestCliqueSpectrumSumMatchesDense(t *testing.T) {
	const n = 48 // ⌊log₂ 48⌋ = 5
	maxW := bits.Len(uint(n)) - 1
	// coefficient returns node v's coefficient S in the chunk at start: a
	// third of them nonzero, and always the empty one.
	coefficient := func(start, v, S int) int64 {
		rng := rand.New(rand.NewSource(int64(start*1_000_003 + v*1009 + S)))
		if S != 0 && rng.Intn(3) != 0 {
			return 0
		}
		if rng.Intn(8) == 0 {
			return math.MaxInt64/2 - rng.Int63n(1<<20)
		}
		return rng.Int63n(1<<40) - 1<<39
	}
	eval := func(lo, hi int, _ *hash.Seed, start, _ int, out []int64) {
		clear(out)
		for v := lo; v < hi; v++ {
			for S := range out {
				out[S] += coefficient(start, v, S)
			}
		}
	}
	host := hostReduction{n}
	for _, p := range []int{1, 4} {
		ring := trace.NewRing(1 << 10)
		cc, err := clique.NewCluster(clique.Config{Parallelism: p, Tracer: ring}, n)
		if err != nil {
			t.Fatal(err)
		}
		r := Clique(cc)
		var widths []int
		for w := 1; w <= maxW; w++ {
			widths = append(widths, w)
		}
		widths = append(widths, 2, maxW, 1, maxW)
		for call, width := range widths {
			start := call // a fresh spectrum per call
			got, gotE, err := r.Extensions(nil, start, width, eval)
			if err != nil {
				t.Fatal(err)
			}
			want, wantE, err := host.Extensions(nil, start, width, eval)
			if err != nil {
				t.Fatal(err)
			}
			if gotE != wantE || !slices.Equal(got, want) {
				t.Fatalf("p=%d call %d width %d: totals %v E %d, host %v E %d", p, call, width, got, gotE, want, wantE)
			}
			words := 0
			for v := 0; v < n; v++ {
				for S := 1; S < 1<<uint(width); S++ {
					if coefficient(start, v, S) != 0 {
						words++
					}
				}
			}
			evs := ring.Events()
			scatter := evs[len(evs)-2]
			if scatter.Step != "chunk/scatter" || scatter.Words != words || scatter.Recv[0] != 0 {
				t.Fatalf("p=%d call %d: %s round carries %d words, %d to aggregator 0; want chunk/scatter with %d, none to 0",
					p, call, scatter.Step, scatter.Words, scatter.Recv[0], words)
			}
		}
	}

	// The seed search itself, on a real estimator whose spectra all have a
	// nonzero empty character: 4-bit chunks cut at 6-bit boundaries give
	// widths 4 and 2 in turn.
	const j = 3
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	marks := func(lo, hi int, s *hash.Seed) int64 {
		var sum int64
		for v := lo; v < hi; v++ {
			sum += int64(v%7+1) * scaled(fam.MarkProb(s, v), j)
		}
		return sum
	}
	cfg := Config{ChunkBits: 4, Objective: Maximize, AlignTo: 6}
	cc, err := clique.NewCluster(clique.Config{}, n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectSeed(Clique(cc), fam.NewSeed(), cfg, Direct(marks))
	if err != nil {
		t.Fatal(err)
	}
	want, err := SelectSeed(host, fam.NewSeed(), cfg, Direct(marks))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clique trace %+v, host trace %+v", got, want)
	}
}
