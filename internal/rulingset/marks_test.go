package rulingset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/clique"
	"github.com/rulingset/mprs/internal/derand"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// bruteMarkProb enumerates all completions of the seed's free suffix and
// returns the fraction under which v's first j linear bits are all 1.
func bruteMarkProb(fam *hash.Bits, s *hash.Seed, v, j int) float64 {
	free := s.Total() - s.Fixed()
	full := s.Clone()
	full.SetFixed(full.Total())
	hit, count := 0, 0
	for e := uint64(0); e < 1<<uint(free); e++ {
		full.SetChunk(s.Fixed(), free, e)
		count++
		ok := true
		for t := 0; t < j; t++ {
			if law := fam.BitLaw(full, t, v); law.Value == 0 {
				ok = false
				break
			}
		}
		if ok {
			hit++
		}
	}
	return float64(hit) / float64(count)
}

func brutePairProb(fam *hash.Bits, s *hash.Seed, u, w, ju, jw int) float64 {
	free := s.Total() - s.Fixed()
	full := s.Clone()
	full.SetFixed(full.Total())
	hit, count := 0, 0
	allOne := func(v, j int) bool {
		for t := 0; t < j; t++ {
			if law := fam.BitLaw(full, t, v); law.Value == 0 {
				return false
			}
		}
		return true
	}
	for e := uint64(0); e < 1<<uint(free); e++ {
		full.SetChunk(s.Fixed(), free, e)
		count++
		if allOne(u, ju) && allOne(w, jw) {
			hit++
		}
	}
	return float64(hit) / float64(count)
}

// spectrum runs add on a fresh spectrum of the given chunk width and
// returns its Walsh transform: the added quantity at every chunk value.
func spectrum(width int, add func(w []int64)) []int64 {
	w := make([]int64, 1<<uint(width))
	add(w)
	derand.Walsh(w)
	return w
}

// alive reports whether v's first j linear bits can still all be 1: none of
// the fully fixed ones among them evaluated to 0. A dead vertex's mark and
// pair probabilities are 0 whatever the chunk value.
func (ms *markState) alive(v, j int) bool {
	return int(ms.firstZero[v]) >= min(ms.fixedSegs, j)
}

// The per-term methods below are the reference the estimators' one-pass
// kernels must equal. Each adds c times a conditional probability to a
// spectrum w of length 2^Z, where the probability is taken given the
// committed prefix plus chunk value e: w[S] gains the coefficient of the
// character χ_S(e) = (−1)^{|S∧e|}, so one derand.Walsh gives the values at
// every e. The case split follows the segment structure: fully fixed
// segments contribute 1 (for alive vertices), fully free ones 1/2 per
// marginal bit and 1/4 per pairwise-joint bit, and only the partial
// segment depends on e, through its chunk view cs. c is a weight in the
// estimator's units of 2^−u (see units), a multiple of 2^(2·maxJ) for
// exponents up to maxJ, so every halving below is an exact shift.

// addMark adds c·P[mark(v)], where mark(v) is the AND of the first j
// linear bits.
func (ms *markState) addMark(w []int64, cs hash.ChunkState, v, j int, c int64) {
	if !ms.alive(v, j) {
		return
	}
	f := ms.fixedSegs
	if f >= j {
		w[0] += c
		return
	}
	// Partial segment f plus j-f-1 fully free segments.
	addOne(w, cs, ms.fam.Coeff(v), c>>(j-f-1))
}

// addPair adds c·P[mark(u) ∧ mark(x)] for distinct u, x with per-vertex
// exponents ju, jx.
func (ms *markState) addPair(w []int64, cs hash.ChunkState, u, x, ju, jx int, c int64) {
	if !ms.alive(u, ju) || !ms.alive(x, jx) {
		return
	}
	a, b := ju, jx
	long := x
	if a > b {
		a, b = b, a
		long = u
	}
	switch f := ms.fixedSegs; {
	case f < a:
		// Partial segment in the joint head [0, a): the pair law there,
		// 1/4 per free head segment, 1/2 per tail segment [a, b).
		addBoth(w, cs, ms.fam.Coeff(u), ms.fam.Coeff(x), c>>(2*(a-f-1)+(b-a)))
	case f < b:
		// Head fully fixed (both alive there); the partial segment is in
		// the tail, which involves only the vertex with the larger exponent.
		addOne(w, cs, ms.fam.Coeff(long), c>>(b-f-1))
	default:
		w[0] += c
	}
}

// addOne adds c·[X = 1] for the partial segment's linear bit X with
// coefficient vector a: c/2 if X is free, else c·(1 − (−1)^par·χ_m)/2.
func addOne(w []int64, cs hash.ChunkState, a uint64, c int64) {
	h := c >> 1
	w[0] += h
	if det, par, m := cs.Lin(a); det {
		w[m] -= signed(h, par)
	}
}

// addBoth adds c·[X(u) = 1 ∧ X(x) = 1] for the partial segment's linear
// bits with vertex coefficient vectors au, ax. Both vectors hold the
// constant coordinate, the segment's last, so the two bits are determined
// together or uniform together.
func addBoth(w []int64, cs hash.ChunkState, au, ax uint64, c int64) {
	q := c >> 2
	w[0] += q
	if det, pu, mu := cs.Lin(au); det { // ¼(1 − su·χ_mu)(1 − sx·χ_mx)
		_, px, mx := cs.Lin(ax)
		w[mu] -= signed(q, pu)
		w[mx] -= signed(q, px)
		w[mu^mx] += signed(signed(q, pu), px)
	} else if det, pd, md := cs.Lin(au ^ ax); det {
		// Uniform but coupled: ½·[X(u) ⊕ X(x) = 0].
		w[md] += signed(q, pd)
	}
}

// TestMarkStateMatchesBruteForce drives markState exactly the way the
// derandomizer does — commit segment-aligned chunks, sync, then score a
// provisional chunk — and compares every chunk value's spectral mark and
// pair probability, in units of 2^−u, against enumeration of the free seed
// suffix.
func TestMarkStateMatchesBruteForce(t *testing.T) {
	const n, nbits = 7, 3
	const u = 2 * nbits
	fam, err := hash.NewBits(n, nbits)
	if err != nil {
		t.Fatal(err)
	}
	segW := fam.SegWidth()
	rng := rand.New(rand.NewSource(21))

	for trial := 0; trial < 40; trial++ {
		seed := fam.NewSeed()
		ms := newMarkState(fam, n)

		// Commit a random number of whole chunks of random width, aligned.
		committed := 0
		for committed < seed.Total() && rng.Intn(3) > 0 {
			width := 1 + rng.Intn(segW)
			if b := segW - committed%segW; width > b {
				width = b
			}
			if committed+width > seed.Total() {
				width = seed.Total() - committed
			}
			seed.SetChunk(committed, width, uint64(rng.Intn(1<<uint(width))))
			seed.Commit(width)
			committed += width
		}
		ms.sync(seed)

		// Provisional chunk within the current segment (as SelectSeed does).
		width := 0
		if rem := seed.Total() - committed; rem > 0 {
			width = 1 + rng.Intn(segW)
			if b := segW - committed%segW; width > b {
				width = b
			}
			if width > rem {
				width = rem
			}
		}
		cs := ms.chunk(seed, committed, width)
		prov := seed.Clone()
		prov.SetFixed(committed + width)
		if prov.Total()-prov.Fixed() > 20 {
			continue // keep enumeration tractable
		}

		type pair struct{ u, w, ju, jw int }
		pairs := make([]pair, 8)
		for i := range pairs {
			u := rng.Intn(n)
			w := rng.Intn(n - 1)
			if w >= u {
				w++
			}
			pairs[i] = pair{u, w, 1 + rng.Intn(nbits), 1 + rng.Intn(nbits)}
		}
		for e := 0; e < 1<<uint(width); e++ {
			prov.SetChunk(committed, width, uint64(e))
			for v := 0; v < n; v++ {
				for j := 1; j <= nbits; j++ {
					got := math.Ldexp(float64(spectrum(width, func(w []int64) { ms.addMark(w, cs, v, j, 1<<u) })[e]), -u)
					if want := bruteMarkProb(fam, prov, v, j); got != want {
						t.Fatalf("trial %d e=%d: P[mark v=%d, j=%d] = %v, brute = %v (committed=%d width=%d)",
							trial, e, v, j, got, want, committed, width)
					}
				}
			}
			for _, p := range pairs {
				got := math.Ldexp(float64(spectrum(width, func(w []int64) { ms.addPair(w, cs, p.u, p.w, p.ju, p.jw, 1<<u) })[e]), -u)
				if want := brutePairProb(fam, prov, p.u, p.w, p.ju, p.jw); got != want {
					t.Fatalf("trial %d e=%d: P[pair %+v] = %v, brute = %v (committed=%d width=%d)",
						trial, e, p, got, want, committed, width)
				}
			}
		}
	}
}

func TestMarkStateFullyFixed(t *testing.T) {
	const n, nbits = 9, 2
	fam, err := hash.NewBits(n, nbits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	seed := fam.NewSeed()
	for i := 0; i < seed.Total(); i++ {
		seed.SetChunk(i, 1, uint64(rng.Intn(2)))
	}
	seed.Commit(seed.Total())
	ms := newMarkState(fam, n)
	ms.sync(seed)
	cs := ms.chunk(seed, seed.Fixed(), 0)
	for v := 0; v < n; v++ {
		for j := 1; j <= nbits; j++ {
			p := spectrum(0, func(w []int64) { ms.addMark(w, cs, v, j, 1) })[0]
			if p != 0 && p != 1 {
				t.Fatalf("fully fixed P[mark] = %v", p)
			}
			if (p == 1) != ms.marked(v, j) {
				t.Fatalf("marked() disagrees with P[mark] at v=%d j=%d", v, j)
			}
		}
	}
}

// estimatorInstance is a random active subgraph on n vertex ids (spread
// over the whole id range, so coefficient vectors vary in every bit) with
// a few hubs, giving heterogeneous Luby exponents.
type estimatorInstance struct {
	active *bitset.Set
	view   mpc.Adjacency // active rows, with the neighbours' active degrees
	deg    []int32
	maxDeg int
}

func newEstimatorInstance(rng *rand.Rand, n, k int) estimatorInstance {
	ids := rng.Perm(n)[:k]
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		for l := i + 1; l < k; l++ {
			if rng.Intn(k) < 4 || (i < 3 && rng.Intn(2) == 0) {
				edges = append(edges, graph.Edge{U: int32(ids[i]), V: int32(ids[l])})
			}
		}
	}
	g := graph.MustNew(n, edges)
	inst := estimatorInstance{active: bitset.New(n), deg: make([]int32, n)}
	for _, v := range ids[:k-2] { // two isolated-by-inactivity vertices
		inst.active.Add(v)
	}
	view := mpc.Adjacency{Off: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		if inst.active.Contains(v) {
			for _, u := range g.Neighbors(v) {
				if inst.active.Contains(int(u)) {
					view.Nbr = append(view.Nbr, u)
					inst.deg[v]++
				}
			}
		}
		view.Off[v+1] = int32(len(view.Nbr))
		if int(inst.deg[v]) > inst.maxDeg {
			inst.maxDeg = int(inst.deg[v])
		}
	}
	for _, u := range view.Nbr {
		view.Val = append(view.Val, inst.deg[u])
	}
	inst.view = view
	return inst
}

// directSparsify is detMarks' potential evaluated the direct way, one seed
// state at a time, from hash.Bits' closed-form conditional laws, in float64
// (exact for dyadic α) and then in units of 2^−u.
func directSparsify(fam *hash.Bits, inst estimatorInstance, j, capSize int, alpha float64, u int) derand.LocalEval {
	return func(lo, hi int, s *hash.Seed) int64 {
		var cost, benefit float64
		for v := lo; v < hi; v++ {
			if !inst.active.Contains(v) {
				continue
			}
			nb := inst.view.Row(v)
			for _, u := range nb {
				if int(u) > v {
					cost += fam.PairMarkProb(s, v, int(u))
				}
			}
			if len(nb) < 1<<uint(j) {
				continue
			}
			nn := nb[:capSize]
			for i, u := range nn {
				benefit += fam.MarkProb(s, int(u))
				for _, w := range nn[i+1:] {
					benefit -= fam.PairMarkProb(s, int(u), int(w))
				}
			}
		}
		return int64(math.Ldexp(alpha*cost-benefit, u))
	}
}

// directLuby is detLubyMarks' progress bound evaluated the direct way, in
// float64 and then in units of 2^−u. The family of j bits gives P[mark v]
// for exponent j; a pair with exponents a ≤ b is the a-bit pair law times
// the longer vertex's bits [a, b).
func directLuby(fams []*hash.Bits, inst estimatorInstance, u int) derand.LocalEval {
	pair := func(s *hash.Seed, u, w, ju, jw int) float64 {
		a, b, long := ju, jw, w
		if a > b {
			a, b, long = b, a, u
		}
		p := fams[a].PairMarkProb(s, u, w)
		for t := a; t < b; t++ {
			p *= fams[b].BitLaw(s, t, long).P1()
		}
		return p
	}
	return func(lo, hi int, s *hash.Seed) int64 {
		var psi float64
		for v := lo; v < hi; v++ {
			if !inst.active.Contains(v) || inst.deg[v] == 0 {
				continue
			}
			jv := lubyJ(int(inst.deg[v]))
			term := fams[jv].MarkProb(s, v)
			du := inst.view.Vals(v)
			for i, u := range inst.view.Row(v) {
				term -= pair(s, v, int(u), jv, lubyJ(int(du[i])))
			}
			psi += float64(inst.deg[v]) * term
		}
		return int64(math.Ldexp(psi, u))
	}
}

// perExtension evaluates eval on [lo, hi) once per extension of the chunk
// [start, start+width), on a copy of s with the chunk written and fixed,
// and once on s itself: the values a spectrum's transform must give, and
// the E[Φ | prefix] its empty-character coefficient must be.
func perExtension(eval derand.LocalEval, lo, hi int, s *hash.Seed, start, width int) ([]int64, int64) {
	vals := make([]int64, 1<<uint(width))
	local := s.Clone()
	local.SetFixed(start + width)
	for e := range vals {
		local.SetChunk(start, width, uint64(e))
		vals[e] = eval(lo, hi, local)
	}
	return vals, eval(lo, hi, s)
}

// TestSpectralEstimatorsMatchDirect is the spectral evaluation's contract:
// on random instances, committed prefixes ending inside a segment and chunk
// widths 1–12, both estimators' one-pass spectra, transformed, equal the
// per-extension direct evaluation, for every extension and item range, and
// their empty-character coefficients equal the direct E[Φ | prefix]; the
// sparsify one at α above and below 1. derand.Direct returns the same
// spectrum.
func TestSpectralEstimatorsMatchDirect(t *testing.T) {
	const n = 2048 // 12-bit encodings: 13-bit segments hold a 12-bit chunk
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 24; trial++ {
		inst := newEstimatorInstance(rng, n, 24+rng.Intn(24))
		width := 1 + trial%12
		lo, hi := rng.Intn(n/2), n/2+rng.Intn(n/2+1)

		// prefix commits f whole segments and ft bits of the next, leaving
		// room for the chunk, and returns a synced markState.
		prefix := func(fam *hash.Bits) (*hash.Seed, *markState, int) {
			segW := fam.SegWidth()
			seed := fam.NewSeed()
			start := rng.Intn(fam.NBits())*segW + rng.Intn(segW-width+1)
			for i := 0; i < start; i++ {
				seed.SetChunk(i, 1, uint64(rng.Intn(2)))
			}
			seed.SetFixed(start)
			ms := newMarkState(fam, n)
			ms.sync(seed)
			return seed, ms, start
		}
		compare := func(name string, spectral derand.ChunkEval, direct derand.LocalEval, seed *hash.Seed, start int) {
			got := make([]int64, 1<<uint(width))
			spectral(lo, hi, seed, start, width, got)
			coef := make([]int64, len(got))
			derand.Direct(direct)(lo, hi, seed, start, width, coef)
			for S := range coef {
				if got[S] != coef[S] {
					t.Fatalf("trial %d %s: width %d start %d: spectral coefficient %d is %v, Direct's %v",
						trial, name, width, start, S, got[S], coef[S])
				}
			}
			gotE := got[0]
			derand.Walsh(got)
			want, wantE := perExtension(direct, lo, hi, seed, start, width)
			if gotE != wantE {
				t.Fatalf("trial %d %s: width %d start %d: spectral E[Φ | prefix] %v, direct %v",
					trial, name, width, start, gotE, wantE)
			}
			for e := range got {
				if got[e] != want[e] {
					t.Fatalf("trial %d %s: width %d start %d e=%d: spectral %v, direct %v",
						trial, name, width, start, e, got[e], want[e])
				}
			}
		}

		j := 1 + rng.Intn(3)
		fam, err := hash.NewBits(n, j)
		if err != nil {
			t.Fatal(err)
		}
		capSize := 1 << uint(j)
		if trial%3 == 0 {
			capSize = 1 + rng.Intn(capSize)
		}
		alpha := []float64{2, 0.5, 8}[trial%3]
		seed, ms, start := prefix(fam)
		eval, u, err := sparsifyEstimator(ms, inst.active, inst.view, j, capSize, alpha)
		if err != nil {
			t.Fatal(err)
		}
		compare("sparsify", eval, directSparsify(fam, inst, j, capSize, alpha, u), seed, start)

		maxJ := lubyJ(inst.maxDeg)
		fams := lubyFamilies(t, n, maxJ)
		seed, ms, start = prefix(fams[maxJ])
		eval, u, err = lubyEstimator(ms, inst.active, inst.view, inst.deg, maxJ)
		if err != nil {
			t.Fatal(err)
		}
		compare("luby", eval, directLuby(fams, inst, u), seed, start)
	}
}

// TestCheckExact pins both bounds: 2·maxJ + |log₂ α| + log₂ terms may reach
// 53 but not exceed it, α = 8 and α = 1/8 alike, and units(maxJ, log₂ α) +
// log₂ weight may reach 62 but not exceed it.
func TestCheckExact(t *testing.T) {
	for _, tc := range []struct {
		maxJ, k, terms int
		weight         float64
		ok             bool
	}{
		{10, 0, 1 << 33, 1, true},
		{10, 0, 1<<33 + 1, 1, false},
		{27, 0, 1, 1, false},
		// α = 8 and α = 1/8 need 3 more bits: 1<<33 terms no longer fit.
		{10, 3, 1 << 30, 1, true},
		{10, 3, 1<<30 + 1, 1, false},
		{10, -3, 1 << 30, 1, true},
		{10, -3, 1<<30 + 1, 1, false},
		// Luby's weights: 2·20 + log₂ weight may reach 62.
		{20, 0, 1, 1 << 22, true},
		{20, 0, 1, 1<<22 + 1, false},
		{20, -1, 1, 1 << 21, true},
		{20, -1, 1, 1<<21 + 1, false},
	} {
		err := checkExact(tc.maxJ, tc.k, tc.terms, tc.weight)
		if (err == nil) != tc.ok {
			t.Errorf("checkExact(%d, %d, %d, %v) = %v, want ok %v", tc.maxJ, tc.k, tc.terms, tc.weight, err, tc.ok)
		}
	}
}

func TestLubyJ(t *testing.T) {
	tests := []struct{ d, want int }{
		{d: 1, want: 1}, // p = 1/2
		{d: 2, want: 2}, // p = 1/4
		{d: 3, want: 3}, // p = 1/8 <= 1/6
		{d: 4, want: 3}, // p = 1/8
		{d: 5, want: 4},
		{d: 8, want: 4}, // p = 1/16
	}
	for _, tt := range tests {
		if got := lubyJ(tt.d); got != tt.want {
			t.Errorf("lubyJ(%d) = %d, want %d", tt.d, got, tt.want)
		}
		// Contract: 2^-j <= 1/(2d) < 2^-(j-1).
		j := lubyJ(tt.d)
		p := math.Ldexp(1, -j)
		if p > 1/(2*float64(tt.d)) || 2*p <= 1/(2*float64(tt.d)) {
			t.Errorf("lubyJ(%d) = %d violates tightness", tt.d, j)
		}
	}
}

// seedSearchAllocs returns the allocations of one MPC chunk scoring (z=8,
// four machines, serial) on gnp(n, 16/n) with detMarks' estimator (j = 3)
// or, with luby set, with detLubyMarks' (every vertex active).
func seedSearchAllocs(t *testing.T, n int, luby bool) float64 {
	t.Helper()
	g, err := gen.GNP(n, 16/float64(n), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := mpc.NewCluster(mpc.Config{Machines: 4, Parallelism: 1}, n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mpc.Distribute(c, g)
	if err != nil {
		t.Fatal(err)
	}
	active := bitset.New(n)
	active.Fill()
	view, err := d.RefreshWithin("view", active, active, mpc.KeepHeard, mpc.GraphRows(g), mpc.Adjacency{})
	if err != nil {
		t.Fatal(err)
	}
	const z = 8
	j := 3
	deg := make([]int32, n)
	if luby {
		for v := range deg {
			deg[v] = int32(len(view.Row(v)))
		}
		if view, err = d.ExchangeAlong("degrees", active, view, deg); err != nil {
			t.Fatal(err)
		}
		j = lubyJ(g.MaxDegree())
	}
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	ms := newMarkState(fam, n)
	var eval derand.ChunkEval
	if luby {
		eval, _, err = lubyEstimator(ms, active, view, deg, j)
	} else {
		eval, _, err = sparsifyEstimator(ms, active, view, j, 1<<j, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	seed := fam.NewSeed()
	r := derand.MPC(c)
	return testing.AllocsPerRun(20, func() {
		if _, _, err := r.Extensions(seed, 0, z, eval); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSeedSearchAllocs pins that scoring a chunk allocates per machine, not
// per item or per extension, with either estimator: it writes into one
// output buffer per machine and the reduction transforms the summed
// spectrum in one totals buffer, both reused across chunks. What is left
// is the all-reduce round's own: a payload per machine and the round's
// fixed allocations, 13 in this setup. (The per-extension search cloned
// the seed on every machine: 33. A fresh totals slice per chunk made it
// 15. A context slice per step made it 14.)
func TestSeedSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const want = 13
	for _, est := range []struct {
		name string
		luby bool
	}{{"sparsify", false}, {"luby", true}} {
		small, large := seedSearchAllocs(t, 1024, est.luby), seedSearchAllocs(t, 8192, est.luby)
		if small != large {
			t.Errorf("%s: %v allocations at n=1024, %v at n=8192", est.name, small, large)
		}
		if small != want {
			t.Errorf("%s: %v allocations per chunk, want %d", est.name, small, want)
		}
	}
}

// TestSolveAllocs pins that a marking loop recycles its vertex-indexed
// arrays: one LubyMIS solve of gnp(65536, 16/n) on 8 machines allocates at
// most twice the graph's CSR bytes, 4(n+1) + 8m, and one DetRuling2 solve
// at most 1.42 times. Luby runs about 20 iterations here; with fresh view
// offsets, degrees and value cursors in every one it allocated about 4.1
// times the CSR, and it reads about 1.4 when its views alternate between
// two buffers. DetRuling2 runs three phases, so it allocates its two views
// either way; its residual gather refreshes into the view the loop left
// dead, which took it from about 1.47 to about 1.40. The race detector
// does not change these bytes, so the test runs under it.
func TestSolveAllocs(t *testing.T) {
	const n = 1 << 16
	g, err := gen.GNP(n, 16.0/n, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	csr := float64(4*(n+1) + 8*g.M())
	for _, alg := range []struct {
		name  string
		solve func(*graph.Graph, Options) (Result, error)
		bound float64
	}{{"luby", LubyMIS, 2.0}, {"det2", DetRuling2, 1.42}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := alg.solve(g, Options{Machines: 8, Parallelism: 2, Seed: 1, ChunkBits: 4}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if ratio := float64(after.TotalAlloc-before.TotalAlloc) / csr; ratio > alg.bound {
			t.Errorf("%s allocated %.2f times the graph's %.0f CSR bytes in one solve, more than %v", alg.name, ratio, csr, alg.bound)
		}
	}
}

// TestLubyWins pins Luby's conflict rule and its two feeds: a marked vertex
// survives iff it beats every marked neighbour on (degree, id). Randomized
// Luby reads its rivals and their degrees from luby/resolve and
// luby/rivals; DetLubyMIS reads every active neighbour's degree from its
// luby/degrees row and skips the unmarked ones locally. Both agree with a
// sequential replay of the marks.
func TestLubyWins(t *testing.T) {
	tests := []struct {
		name     string
		v        int
		dv       int32
		nbrs, ds []int32
		marked   []int32
		want     bool
	}{
		{"no rivals", 4, 3, nil, nil, nil, true},
		{"tie, higher id wins", 7, 2, []int32{5}, []int32{2}, []int32{5}, true},
		{"tie, lower id loses", 5, 2, []int32{7}, []int32{2}, []int32{7}, false},
		{"higher degree wins over a higher id", 5, 3, []int32{7, 9}, []int32{2, 1}, []int32{7, 9}, true},
		{"one higher-degree rival is enough", 9, 3, []int32{1, 4}, []int32{1, 4}, []int32{1, 4}, false},
		{"an unmarked stronger neighbour is no rival", 5, 2, []int32{3, 8}, []int32{1, 6}, []int32{3}, true},
	}
	for _, tt := range tests {
		marks := bitset.New(16)
		for _, w := range tt.marked {
			marks.Add(int(w))
		}
		if got := lubyWins(tt.v, tt.dv, tt.nbrs, tt.ds, marks); got != tt.want {
			t.Errorf("%s: lubyWins = %v, want %v", tt.name, got, tt.want)
		}
	}

	const n = 300
	g := gen.MustBuild("gnp:n=300,p=0.03", 11)
	c, err := mpc.NewCluster(mpc.Config{Machines: 4}, n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mpc.Distribute(c, g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	active, marks := bitset.New(n), bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(4) > 0 {
			active.Add(v)
			if rng.Intn(2) == 0 {
				marks.Add(v)
			}
		}
	}
	view, err := d.RefreshWithin("view", active, active, mpc.KeepHeard, mpc.GraphRows(g), mpc.Adjacency{})
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int32, n)
	active.ForEach(func(v int) bool {
		deg[v] = int32(len(view.Row(v)))
		return true
	})
	nbrDeg, err := d.ExchangeAlong("degrees", active, view, deg)
	if err != nil {
		t.Fatal(err)
	}
	resolve, err := d.RefreshWithin("resolve", marks, marks, mpc.KeepHeard, view, mpc.Adjacency{})
	if err != nil {
		t.Fatal(err)
	}
	sent, err := d.ExchangeAlong("rivals", marks, resolve, deg)
	if err != nil {
		t.Fatal(err)
	}
	wins, ties := 0, 0
	marks.ForEach(func(v int) bool {
		// The replay: v wins iff no marked active neighbour beats it.
		want := true
		for _, w := range g.Neighbors(v) {
			if !marks.Contains(int(w)) {
				continue
			}
			if deg[w] == deg[v] {
				ties++
			}
			if deg[w] > deg[v] || (deg[w] == deg[v] && int(w) > v) {
				want = false
			}
		}
		for i, w := range resolve.Row(v) {
			if deg[w] != sent.Vals(v)[i] {
				t.Fatalf("vertex %d: rival %d has degree %d, got %d", v, w, deg[w], sent.Vals(v)[i])
			}
		}
		if got := lubyWins(v, deg[v], sent.Row(v), sent.Vals(v), marks); got != want {
			t.Fatalf("vertex %d: the luby/rivals feed says wins=%v, the replay %v", v, got, want)
		}
		if got := lubyWins(v, deg[v], nbrDeg.Row(v), nbrDeg.Vals(v), marks); got != want {
			t.Fatalf("vertex %d: the local rule on the luby/degrees row says wins=%v, the replay %v", v, got, want)
		}
		if want {
			wins++
		}
		return true
	})
	if wins == 0 || wins == marks.Count() || ties == 0 {
		t.Fatalf("%d of %d marked vertices win, %d tied rivals: the instance does not exercise the rule", wins, marks.Count(), ties)
	}
}

// expectPass is the reference E[Φ]: a separate width-0 pass, summing eval
// at width 0 on the unfixed seed over the item ranges [lo, hi). A width-0
// spectrum is its one empty-character coefficient.
func expectPass(eval derand.ChunkEval, s *hash.Seed, ranges [][2]int) int64 {
	var val [1]int64
	var sum int64
	for _, r := range ranges {
		eval(r[0], r[1], s, s.Fixed(), 0, val[:])
		sum += val[0]
	}
	return sum
}

// TestSelectSeedInitialMatchesExpect: Trace.Initial, the empty-character
// coefficient of the first chunk's summed spectrum (on the clique, summed
// on the host, off the wire), is the E[Φ] of the width-0 pass, on both
// models, for the sparsify
// estimator at α = 2 and at α = 1/2 (which shifts the benefit terms, not
// the cost terms) and for the Luby estimator.
func TestSelectSeedInitialMatchesExpect(t *testing.T) {
	const n, j = 512, 3
	inst := newEstimatorInstance(rand.New(rand.NewSource(31)), n, 300)
	// build returns a fresh estimator with its unfixed seed and mark state.
	type estimator struct {
		name  string
		obj   derand.Objective
		build func() (derand.ChunkEval, *hash.Seed, *markState)
	}
	var estimators []estimator
	for _, alpha := range []float64{2, 0.5} {
		estimators = append(estimators, estimator{fmt.Sprintf("sparsify α=%v", alpha), derand.Minimize, func() (derand.ChunkEval, *hash.Seed, *markState) {
			fam, err := hash.NewBits(n, j)
			if err != nil {
				t.Fatal(err)
			}
			ms := newMarkState(fam, n)
			eval, _, err := sparsifyEstimator(ms, inst.active, inst.view, j, 1<<j, alpha)
			if err != nil {
				t.Fatal(err)
			}
			return eval, fam.NewSeed(), ms
		}})
	}
	estimators = append(estimators, estimator{"luby", derand.Maximize, func() (derand.ChunkEval, *hash.Seed, *markState) {
		maxJ := lubyJ(inst.maxDeg)
		fam, err := hash.NewBits(n, maxJ)
		if err != nil {
			t.Fatal(err)
		}
		ms := newMarkState(fam, n)
		eval, _, err := lubyEstimator(ms, inst.active, inst.view, inst.deg, maxJ)
		if err != nil {
			t.Fatal(err)
		}
		return eval, fam.NewSeed(), ms
	}})

	mc, err := mpc.NewCluster(mpc.Config{Machines: 8}, n)
	if err != nil {
		t.Fatal(err)
	}
	var machines, nodes [][2]int
	for m := 0; m < mc.Machines(); m++ {
		lo, hi := mc.Range(m)
		machines = append(machines, [2]int{lo, hi})
	}
	for v := 0; v < n; v++ {
		nodes = append(nodes, [2]int{v, v + 1})
	}
	cc, err := clique.NewCluster(clique.Config{}, n)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name   string
		r      derand.Reduction
		ranges [][2]int
	}{{"mpc", derand.MPC(mc), machines}, {"clique", derand.Clique(cc), nodes}}

	for _, est := range estimators {
		for _, m := range models {
			eval, seed, ms := est.build()
			want := expectPass(eval, seed, m.ranges)
			trace, err := derand.SelectSeed(m.r, seed, derand.Config{
				ChunkBits: 4,
				Objective: est.obj,
				AlignTo:   ms.fam.SegWidth(),
				OnChunk:   func(s *hash.Seed, _, _ int) { ms.sync(s) },
			}, eval)
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				t.Fatalf("%s on %s: E[Φ] is 0, the instance scores nothing", est.name, m.name)
			}
			if trace.Initial != want {
				t.Errorf("%s on %s: Trace.Initial %d, width-0 pass %d", est.name, m.name, trace.Initial, want)
			}
		}
	}
}
