package rulingset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/derand"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// perTermSparsify is detMarks' potential's spectrum, scored in units of
// 2^−u one term at a time through markState.addMark/addPair: the reference
// the one-pass kernel of sparsifyEstimator must equal.
func perTermSparsify(ms *markState, active *bitset.Set, view mpc.Adjacency, j, capSize int, alpha float64, u int) derand.ChunkEval {
	highDeg := 1 << uint(j)
	cost, one := int64(math.Ldexp(alpha, u)), int64(1)<<u
	return func(lo, hi int, s *hash.Seed, start, width int, out []int64) {
		clear(out)
		cs := ms.chunk(s, start, width)
		for v := lo; v < hi; v++ {
			if !active.Contains(v) {
				continue
			}
			nb := view.Row(v)
			if ms.alive(v, j) {
				for _, u := range nb {
					if int(u) > v {
						ms.addPair(out, cs, v, int(u), j, j, cost)
					}
				}
			}
			if len(nb) < highDeg {
				continue
			}
			nn := nb[:capSize]
			for i, u := range nn {
				if !ms.alive(int(u), j) {
					continue
				}
				ms.addMark(out, cs, int(u), j, -one)
				for _, w := range nn[i+1:] {
					ms.addPair(out, cs, int(u), int(w), j, j, one)
				}
			}
		}
	}
}

// kernelInstance is an active subgraph of gnp(n, deg/n) plus one hub per
// entry of hubDegs, joined to that many random vertices, so benefit
// neighbourhoods of any size up to the largest qualify and Luby exponents
// spread up to lubyJ of it; about one vertex in eight is inactive.
func kernelInstance(rng *rand.Rand, n int, deg float64, hubDegs ...int) (*bitset.Set, mpc.Adjacency) {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			if rng.Float64()*float64(n) < deg {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(w)})
			}
		}
	}
	for _, hubDeg := range hubDegs {
		if n < 2 {
			break
		}
		hub := rng.Intn(n)
		for i := 0; i < hubDeg; i++ {
			if w := rng.Intn(n); w != hub {
				edges = append(edges, graph.Edge{U: int32(hub), V: int32(w)})
			}
		}
	}
	g := graph.MustNew(n, edges)
	active := bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(8) > 0 {
			active.Add(v)
		}
	}
	view := mpc.Adjacency{Off: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		if active.Contains(v) {
			for _, u := range g.Neighbors(v) {
				if active.Contains(int(u)) {
					view.Nbr = append(view.Nbr, u)
				}
			}
		}
		view.Off[v+1] = int32(len(view.Nbr))
	}
	return active, view
}

// kernelPrefix commits f whole random segments and ft random bits of the
// next one and returns the seed with a markState synced to it; the chunk
// then starts at f·segW + ft.
func kernelPrefix(rng *rand.Rand, fam *hash.Bits, n, f, ft int) (*hash.Seed, *markState, int) {
	seed := fam.NewSeed()
	start := f*fam.SegWidth() + ft
	for i := 0; i < start; i++ {
		seed.SetChunk(i, 1, uint64(rng.Intn(2)))
	}
	seed.SetFixed(start)
	ms := newMarkState(fam, n)
	ms.sync(seed)
	return seed, ms, start
}

// kernelCase is one chunk position of the kernel test: f segments fixed, ft
// bits of the next committed, and a chunk of width bits after them.
type kernelCase struct {
	name         string
	f, ft, width int
}

// kernelCases returns the chunk positions the kernel must score exactly
// for exponent j and segment width segW = k+1: a chunk inside the segment
// (undetermined), one ending just before the constant coordinate (still
// undetermined) and one ending exactly at it (determined), width 0, the
// first chunk of the whole seed, and the fully fixed seed.
func kernelCases(rng *rand.Rand, j, segW int) []kernelCase {
	k := segW - 1
	f := rng.Intn(j)
	wide := 1 + rng.Intn(10) // up to 2^10 extensions, past the stack spectrum
	return []kernelCase{
		{"inside", f, rng.Intn(k - 1), 1},
		{"before-constant", f, k - wide, wide},
		{"at-constant", f, k + 1 - wide, wide},
		{"whole-segment", f, 0, segW},
		{"width-0", f, rng.Intn(segW), 0},
		{"first-chunk", 0, 0, 1 + rng.Intn(8)},
		{"fully-fixed", j, 0, 0},
	}
}

// compareKernel scores the chunk with the kernel and the per-term reference
// on [lo, hi) and through the MPC reduction at parallelism 1 and 4, and
// fails unless every extension's value is the same. On the item range it
// transforms both spectra and compares the values and the E[Φ | prefix]
// (the empty-character coefficient); the reduction sums and transforms.
func compareKernel(t *testing.T, label string, kernel, ref derand.ChunkEval, n, lo, hi int, seed *hash.Seed, start, width int) {
	t.Helper()
	same := func(what string, got, want []int64) {
		t.Helper()
		for e := range want {
			if got[e] != want[e] {
				t.Fatalf("%s %s: start %d width %d e=%d: kernel %v, per-term %v", label, what, start, width, e, got[e], want[e])
			}
		}
	}
	// values scores the chunk with eval on [lo, hi) and returns the value
	// at every extension, then E[Φ | prefix].
	values := func(eval derand.ChunkEval) []int64 {
		coef := make([]int64, 1<<uint(width))
		eval(lo, hi, seed, start, width, coef)
		expect := coef[0]
		derand.Walsh(coef)
		return append(coef, expect)
	}
	same("range", values(kernel), values(ref))
	for _, par := range []int{1, 4} {
		c, err := mpc.NewCluster(mpc.Config{Machines: 5, Parallelism: par}, n)
		if err != nil {
			t.Fatal(err)
		}
		r := derand.MPC(c)
		got, gotE, err := r.Extensions(seed, start, width, kernel)
		if err != nil {
			t.Fatal(err)
		}
		got = slices.Clone(got) // the next Extensions call reuses totals
		want, wantE, err := r.Extensions(seed, start, width, ref)
		if err != nil {
			t.Fatal(err)
		}
		same("reduction", append(got, gotE), append(want, wantE))
	}
}

// TestSparsifyKernelMatchesPerTerm is the one-pass kernel's contract: at
// every exponent up to 9 (2^9-vertex benefit neighbourhoods, past any stack
// table), under a benefit cap below 2^j, at α above, at and below 1, with
// the chunk inside a segment, ending just before or exactly at its constant
// coordinate, of width 0, and with every segment fixed, sparsifyEstimator's
// values (its spectrum, transformed) equal the per-term loop's, on an item
// range and summed over machines at parallelism 1 and 4.
func TestSparsifyKernelMatchesPerTerm(t *testing.T) {
	const n = 2048 // 12-bit encodings, 13-bit segments
	rng := rand.New(rand.NewSource(29))
	active, view := kernelInstance(rng, n, 12, 1100, 1100, 1100)
	for j := 1; j <= 9; j++ {
		fam, err := hash.NewBits(n, j)
		if err != nil {
			t.Fatal(err)
		}
		for _, capSize := range []int{1 << uint(j), 1 + rng.Intn(1<<uint(j))} {
			for _, kc := range kernelCases(rng, j, fam.SegWidth()) {
				seed, ms, start := kernelPrefix(rng, fam, n, kc.f, kc.ft)
				alpha := []float64{2, 0.5, 8}[rng.Intn(3)]
				kernel, u, err := sparsifyEstimator(ms, active, view, j, capSize, alpha)
				if err != nil {
					t.Fatal(err)
				}
				ref := perTermSparsify(ms, active, view, j, capSize, alpha, u)
				lo, hi := rng.Intn(n/2), n/2+rng.Intn(n/2+1)
				label := fmt.Sprintf("j=%d cap=%d %s", j, capSize, kc.name)
				compareKernel(t, label, kernel, ref, n, lo, hi, seed, start, kc.width)
			}
		}
	}
}

// FuzzSparsifyEstimator checks the kernel against the per-term loop on
// random instances: graph size and degree, exponent, benefit cap, α, and
// the chunk's start and width.
func FuzzSparsifyEstimator(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(12), uint8(3), uint16(0), uint8(0), uint16(30), uint8(4))
	f.Add(int64(2), uint16(1000), uint8(40), uint8(5), uint16(7), uint8(1), uint16(3), uint8(8))
	f.Add(int64(3), uint16(64), uint8(60), uint8(6), uint16(0), uint8(2), uint16(200), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, degRaw, jRaw uint8, capRaw uint16, alphaRaw uint8, startRaw uint16, widthRaw uint8) {
		n := 2 + int(nRaw)%1023
		j := 1 + int(jRaw)%9
		rng := rand.New(rand.NewSource(seed))
		hubDegs := make([]int, degRaw>>6)
		for i := range hubDegs {
			hubDegs[i] = 1<<uint(j) + int(degRaw%8)
		}
		active, view := kernelInstance(rng, n, float64(degRaw%64), hubDegs...)
		fam, err := hash.NewBits(n, j)
		if err != nil {
			t.Fatal(err)
		}
		capSize := 1 << uint(j)
		if c := int(capRaw); c > 0 && c < capSize {
			capSize = c
		}
		alpha := []float64{2, 1, 0.5, 4, 8}[alphaRaw%5]
		segW := fam.SegWidth()
		start := int(startRaw) % (fam.SeedBits() + 1)
		width := 0
		if start < fam.SeedBits() {
			width = int(widthRaw) % (segW - start%segW + 1)
		}
		pre, ms, _ := kernelPrefix(rng, fam, n, start/segW, start%segW)
		kernel, u, err := sparsifyEstimator(ms, active, view, j, capSize, alpha)
		if err != nil {
			t.Skip() // past checkExact's range
		}
		ref := perTermSparsify(ms, active, view, j, capSize, alpha, u)
		compareKernel(t, "fuzz", kernel, ref, n, 0, n, pre, start, width)
	})
}

// BenchmarkSparsifyEstimator scores one z = 8 chunk of det2's first phase
// on gnp(4096, 0.006) with one segment fixed: at a chunk inside the next
// segment (undetermined) and at one ending on its constant coordinate
// (determined).
func BenchmarkSparsifyEstimator(b *testing.B) {
	const n, z = 4096, 8
	g, err := gen.GNP(n, 0.006, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	j := schedule(g.MaxDegree())[0]
	fam, err := hash.NewBits(n, j)
	if err != nil {
		b.Fatal(err)
	}
	active := bitset.New(n)
	active.Fill()
	view := mpc.GraphRows(g)
	segW := fam.SegWidth()
	for _, pos := range []struct {
		name string
		ft   int
	}{{"undetermined", 0}, {"determined", segW - z}} {
		b.Run(pos.name, func(b *testing.B) {
			seed, ms, start := kernelPrefix(rand.New(rand.NewSource(2)), fam, n, 1, pos.ft)
			eval, _, err := sparsifyEstimator(ms, active, view, j, 1<<uint(j), 2)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]int64, 1<<z)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval(0, n, seed, start, z, out)
			}
		})
	}
}
