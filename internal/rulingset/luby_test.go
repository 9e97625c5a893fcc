package rulingset

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/derand"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// perTermLuby is detLubyMarks' progress bound's spectrum, scored in units
// of 2^−u one term at a time through markState.addMark/addPair: the
// reference the one-pass kernel of lubyEstimator must equal.
func perTermLuby(ms *markState, active *bitset.Set, nbrDeg mpc.Adjacency, deg []int32, u int) derand.ChunkEval {
	return func(lo, hi int, s *hash.Seed, start, width int, out []int64) {
		clear(out)
		cs := ms.chunk(s, start, width)
		for v := lo; v < hi; v++ {
			if !active.Contains(v) || deg[v] == 0 {
				continue
			}
			jv := lubyJ(int(deg[v]))
			if !ms.alive(v, jv) {
				continue
			}
			dv := int64(deg[v]) << u
			ms.addMark(out, cs, v, jv, dv)
			du := nbrDeg.Vals(v)
			for i, x := range nbrDeg.Row(v) {
				ms.addPair(out, cs, v, int(x), jv, lubyJ(int(du[i])), -dv)
			}
		}
	}
}

// lubyInstance is kernelInstance's active subgraph with every active
// vertex's degree and, on each view row, its neighbours' degrees.
func lubyInstance(rng *rand.Rand, n int, deg float64, hubDegs ...int) estimatorInstance {
	active, view := kernelInstance(rng, n, deg, hubDegs...)
	inst := estimatorInstance{active: active, view: view, deg: make([]int32, n)}
	for v := 0; v < n; v++ {
		inst.deg[v] = int32(len(view.Row(v)))
		inst.maxDeg = max(inst.maxDeg, len(view.Row(v)))
	}
	inst.view.Val = make([]int32, len(view.Nbr))
	for i, x := range view.Nbr {
		inst.view.Val[i] = inst.deg[x]
	}
	return inst
}

// lubyFamilies returns the AND-families of 1 to maxJ bits on n vertices,
// indexed by their bit count, for directLuby.
func lubyFamilies(t testing.TB, n, maxJ int) []*hash.Bits {
	t.Helper()
	fams := make([]*hash.Bits, maxJ+1)
	for j := 1; j <= maxJ; j++ {
		var err error
		if fams[j], err = hash.NewBits(n, j); err != nil {
			t.Fatal(err)
		}
	}
	return fams
}

// compareDirect fails unless the kernel's spectrum of the chunk on [lo,
// hi) equals derand.Direct's of direct, the per-extension evaluation.
func compareDirect(t *testing.T, label string, kernel derand.ChunkEval, direct derand.LocalEval, lo, hi int, seed *hash.Seed, start, width int) {
	t.Helper()
	got, want := make([]int64, 1<<uint(width)), make([]int64, 1<<uint(width))
	kernel(lo, hi, seed, start, width, got)
	derand.Direct(direct)(lo, hi, seed, start, width, want)
	for S := range want {
		if got[S] != want[S] {
			t.Fatalf("%s: start %d width %d [%d, %d): coefficient %d is %d, direct %d", label, start, width, lo, hi, S, got[S], want[S])
		}
	}
}

// TestLubyKernelMatchesPerTerm is the one-pass Luby kernel's contract: on an
// instance where every exponent 1..maxJ occurs, so that with f segments
// fixed some vertices have j ≤ f, some j = f+1 and some j > f+1, at every
// f from 0 to maxJ, with the chunk inside a segment, ending just before or
// exactly at its constant coordinate, spanning it whole or of width 0,
// lubyEstimator's values equal the per-term loop's, on an item range and
// summed over machines at parallelism 1 and 4. With f ≥ 1 about half the
// vertices are dead. The kernel's spectrum on a few items also equals the
// per-extension direct evaluation, so the per-term loop's does too.
func TestLubyKernelMatchesPerTerm(t *testing.T) {
	const n = 2048 // 12-bit encodings, 13-bit segments
	rng := rand.New(rand.NewSource(37))
	// Hubs of active degree about 1225, 700, 350, 175, 88 and 44 take the
	// exponents from gnp's 1..6 up to 12.
	inst := lubyInstance(rng, n, 8, 1400, 800, 400, 200, 100, 50)
	maxJ := lubyJ(inst.maxDeg)
	seen := make([]bool, maxJ+1)
	inst.active.ForEach(func(v int) bool {
		if inst.deg[v] > 0 {
			seen[lubyJ(int(inst.deg[v]))] = true
		}
		return true
	})
	for j := 1; j <= maxJ; j++ {
		if !seen[j] {
			t.Fatalf("no active vertex has exponent %d of 1..%d: the instance does not mix exponents around every f", j, maxJ)
		}
	}
	fam, err := hash.NewBits(n, maxJ)
	if err != nil {
		t.Fatal(err)
	}
	fams := lubyFamilies(t, n, maxJ)
	for f := 0; f < maxJ; f++ {
		for _, kc := range kernelCases(rng, maxJ, fam.SegWidth()) {
			switch kc.name {
			case "first-chunk", "fully-fixed":
				if f > 0 {
					continue
				}
			default:
				kc.f = f
			}
			seed, ms, start := kernelPrefix(rng, fam, n, kc.f, kc.ft)
			kernel, u, err := lubyEstimator(ms, inst.active, inst.view, inst.deg, maxJ)
			if err != nil {
				t.Fatal(err)
			}
			ref := perTermLuby(ms, inst.active, inst.view, inst.deg, u)
			lo, hi := rng.Intn(n/2), n/2+rng.Intn(n/2+1)
			label := fmt.Sprintf("f=%d %s", kc.f, kc.name)
			compareKernel(t, label, kernel, ref, n, lo, hi, seed, start, kc.width)
			lo = rng.Intn(n - 8)
			compareDirect(t, label, kernel, directLuby(fams, inst, u), lo, lo+8, seed, start, kc.width)
		}
	}
}

// FuzzLubyEstimator checks the Luby kernel against the per-term loop, and
// on a few items against the direct evaluation, on random instances: graph
// size and degree, hub degrees, and the chunk's start and width.
func FuzzLubyEstimator(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(8), uint16(0x0421), uint16(30), uint8(4))
	f.Add(int64(2), uint16(1000), uint8(3), uint16(0xffff), uint16(7), uint8(8))
	f.Add(int64(3), uint16(64), uint8(40), uint16(0), uint16(200), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, degRaw uint8, hubRaw uint16, startRaw uint16, widthRaw uint8) {
		n := 2 + int(nRaw)%1023
		rng := rand.New(rand.NewSource(seed))
		// Each nibble of hubRaw is a hub of degree 2^nibble (0: no hub).
		var hubDegs []int
		for h := hubRaw; h != 0; h >>= 4 {
			if b := h & 15; b != 0 {
				hubDegs = append(hubDegs, 1<<b)
			}
		}
		inst := lubyInstance(rng, n, float64(degRaw%32), hubDegs...)
		if inst.maxDeg == 0 {
			t.Skip() // no edge: detLubyMarks is not called
		}
		maxJ := lubyJ(inst.maxDeg)
		fam, err := hash.NewBits(n, maxJ)
		if err != nil {
			t.Fatal(err)
		}
		segW := fam.SegWidth()
		start := int(startRaw) % (fam.SeedBits() + 1)
		width := 0
		if start < fam.SeedBits() {
			width = int(widthRaw) % (segW - start%segW + 1)
		}
		pre, ms, _ := kernelPrefix(rng, fam, n, start/segW, start%segW)
		kernel, u, err := lubyEstimator(ms, inst.active, inst.view, inst.deg, maxJ)
		if err != nil {
			t.Skip() // past checkExact's range
		}
		ref := perTermLuby(ms, inst.active, inst.view, inst.deg, u)
		compareKernel(t, "fuzz", kernel, ref, n, 0, n, pre, start, width)
		lo := rng.Intn(n)
		compareDirect(t, "fuzz", kernel, directLuby(lubyFamilies(t, n, maxJ), inst, u), lo, min(n, lo+4), pre, start, width)
	})
}
