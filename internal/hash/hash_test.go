package hash

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

// seedBit returns the current value of seed bit i (committed or
// provisional).
func seedBit(s *Seed, i int) uint64 {
	return (s.words[i/64] >> uint(i%64)) & 1
}

// randomize fills the free bits of s with random values and commits them,
// producing a fully fixed random seed.
func randomize(s *Seed, rng *rand.Rand) {
	for i := s.fixed; i < s.total; i++ {
		s.SetChunk(i, 1, uint64(rng.Intn(2)))
	}
	s.fixed = s.total
}

// marked evaluates the mark of v under a fully fixed seed.
func marked(b *Bits, s *Seed, v int) bool {
	for t := 0; t < b.nbits; t++ {
		if law := b.BitLaw(s, t, v); !law.Determined || law.Value == 0 {
			return false
		}
	}
	return true
}

func TestEncodeBits(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{n: 0, want: 1},
		{n: 1, want: 1},
		{n: 2, want: 2},
		{n: 3, want: 2},
		{n: 4, want: 3},
		{n: 7, want: 3},
		{n: 8, want: 4},
		{n: 1023, want: 10},
		{n: 1024, want: 11},
	}
	for _, tt := range tests {
		if got := EncodeBits(tt.n); got != tt.want {
			t.Errorf("EncodeBits(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
	// enc(v) = v+1 must fit in EncodeBits(n) bits for all v in [0, n).
	for _, n := range []int{1, 2, 3, 5, 16, 100} {
		k := EncodeBits(n)
		if n > (1<<uint(k))-1 {
			t.Errorf("n=%d: enc(n-1)=%d does not fit in %d bits", n, n, k)
		}
	}
}

func TestSeedChunks(t *testing.T) {
	s := NewSeed(130)
	s.SetChunk(60, 10, 0x2AB)
	if got := s.chunk(60, 10); got != 0x2AB {
		t.Fatalf("chunk readback across word boundary = %#x, want 0x2AB", got)
	}
	if seedBit(s, 60) != 1 || seedBit(s, 61) != 1 || seedBit(s, 62) != 0 {
		t.Fatalf("bit readback wrong: %d %d %d", seedBit(s, 60), seedBit(s, 61), seedBit(s, 62))
	}
	s.SetChunk(60, 10, 0)
	if got := s.chunk(60, 10); got != 0 {
		t.Fatalf("clearing chunk failed: %#x", got)
	}
	if s.Fixed() != 0 {
		t.Fatalf("SetChunk must not move the fixed prefix")
	}
	s.Commit(100)
	if s.Fixed() != 100 {
		t.Fatalf("Commit: fixed = %d, want 100", s.Fixed())
	}
	s.Commit(100)
	if s.Fixed() != 130 {
		t.Fatalf("Commit must clamp to total, got %d", s.Fixed())
	}
	s.SetFixed(-5)
	if s.Fixed() != 0 {
		t.Fatalf("SetFixed must clamp at 0, got %d", s.Fixed())
	}
}

func TestSeedCloneIndependence(t *testing.T) {
	s := NewSeed(64)
	s.SetChunk(0, 8, 0xFF)
	s.Commit(8)
	c := s.Clone()
	c.SetChunk(8, 8, 0xAA)
	c.Commit(8)
	if s.Fixed() != 8 {
		t.Fatalf("clone mutation leaked into original fixed prefix")
	}
	if s.chunk(8, 8) != 0 {
		t.Fatalf("clone mutation leaked into original bits")
	}
}

// enumerateSeeds calls f with every full assignment of the free suffix of s,
// leaving s restored afterwards.
func enumerateSeeds(s *Seed, f func(full *Seed)) {
	free := s.Total() - s.Fixed()
	if free > 24 {
		panic("enumerateSeeds: too many free bits")
	}
	full := s.Clone()
	full.SetFixed(full.Total())
	for e := uint64(0); e < 1<<uint(free); e++ {
		full.SetChunk(s.Fixed(), free, e)
		f(full)
	}
}

func TestBitsMarginalMatchesBruteForce(t *testing.T) {
	const n, j = 13, 2
	fam, err := NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		s := fam.NewSeed()
		prefix := rng.Intn(s.Total() + 1)
		for i := 0; i < prefix; i++ {
			s.SetChunk(i, 1, uint64(rng.Intn(2)))
		}
		s.SetFixed(prefix)
		for v := 0; v < n; v++ {
			want := 0.0
			count := 0
			enumerateSeeds(s, func(full *Seed) {
				count++
				if marked(fam, full, v) {
					want++
				}
			})
			want /= float64(count)
			if got := fam.MarkProb(s, v); math.Abs(got-want) > tol {
				t.Fatalf("trial %d v=%d prefix=%d: MarkProb=%v brute=%v", trial, v, prefix, got, want)
			}
		}
	}
}

func TestBitsPairMatchesBruteForce(t *testing.T) {
	const n, j = 11, 2
	fam, err := NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		s := fam.NewSeed()
		prefix := rng.Intn(s.Total() + 1)
		for i := 0; i < prefix; i++ {
			s.SetChunk(i, 1, uint64(rng.Intn(2)))
		}
		s.SetFixed(prefix)
		u := rng.Intn(n)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		want := 0.0
		count := 0
		enumerateSeeds(s, func(full *Seed) {
			count++
			if marked(fam, full, u) && marked(fam, full, v) {
				want++
			}
		})
		want /= float64(count)
		if got := fam.PairMarkProb(s, u, v); math.Abs(got-want) > tol {
			t.Fatalf("trial %d (%d,%d) prefix=%d: PairMarkProb=%v brute=%v", trial, u, v, prefix, got, want)
		}
	}
}

func TestBitsPairwiseIndependence(t *testing.T) {
	// Over the full seed space, marks must have mean exactly 2^-j and
	// pairwise products mean exactly 2^-2j for every distinct pair.
	const n, j = 6, 2
	fam, err := NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	s := fam.NewSeed() // nothing fixed: enumerate everything
	counts := make([]int, n)
	pairCounts := make([][]int, n)
	for i := range pairCounts {
		pairCounts[i] = make([]int, n)
	}
	total := 0
	enumerateSeeds(s, func(full *Seed) {
		total++
		for u := 0; u < n; u++ {
			if !marked(fam, full, u) {
				continue
			}
			counts[u]++
			for v := u + 1; v < n; v++ {
				if marked(fam, full, v) {
					pairCounts[u][v]++
				}
			}
		}
	})
	p := math.Ldexp(1, -j)
	for u := 0; u < n; u++ {
		if got := float64(counts[u]) / float64(total); math.Abs(got-p) > tol {
			t.Errorf("mean mark of %d = %v, want %v", u, got, p)
		}
		for v := u + 1; v < n; v++ {
			if got := float64(pairCounts[u][v]) / float64(total); math.Abs(got-p*p) > tol {
				t.Errorf("pair (%d,%d) = %v, want %v", u, v, got, p*p)
			}
		}
	}
}

func TestConditionalExpectationConsistency(t *testing.T) {
	// The law of total expectation bit by bit:
	// E[X | prefix] = (E[X | prefix,0] + E[X | prefix,1]) / 2.
	const n, j = 12, 3
	fam, err := NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	check := func(seedBits uint32, u8, v8 uint8) bool {
		s := fam.NewSeed()
		prefix := int(seedBits) % s.Total()
		for i := 0; i < prefix; i++ {
			s.SetChunk(i, 1, uint64(seedBits>>uint(i%24))&1)
		}
		s.SetFixed(prefix)
		u := int(u8) % n
		v := int(v8) % (n - 1)
		if v >= u {
			v++
		}
		parent := fam.PairMarkProb(s, u, v)
		child := s.Clone()
		child.SetFixed(prefix + 1)
		child.SetChunk(prefix, 1, 0)
		c0 := fam.PairMarkProb(child, u, v)
		child.SetChunk(prefix, 1, 1)
		c1 := fam.PairMarkProb(child, u, v)
		return math.Abs(parent-(c0+c1)/2) < tol
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestNewFamilyErrors(t *testing.T) {
	if _, err := NewBits(10, 0); err == nil {
		t.Error("NewBits with 0 bits must fail")
	}
	if _, err := NewBits(10, -1); err == nil {
		t.Error("NewBits with negative bits must fail")
	}
}

func TestRandomizeFixesAllBits(t *testing.T) {
	fam, err := NewBits(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := fam.NewSeed()
	randomize(s, rand.New(rand.NewSource(9)))
	if s.Fixed() != s.Total() {
		t.Fatalf("Randomize left %d free bits", s.Total()-s.Fixed())
	}
	// Under a fully fixed seed, probabilities are realized 0/1 indicators.
	for v := 0; v < 20; v++ {
		p := fam.MarkProb(s, v)
		if p != 0 && p != 1 {
			t.Fatalf("fully fixed MarkProb(%d) = %v, want 0 or 1", v, p)
		}
		if (p == 1) != marked(fam, s, v) {
			t.Fatalf("MarkProb and Marked disagree at %d", v)
		}
	}
}

func TestPairLawIsDistribution(t *testing.T) {
	const n, nbits = 11, 2
	fam, err := NewFamily(n, nbits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		s := fam.NewSeed()
		prefix := rng.Intn(s.Total() + 1)
		for i := 0; i < prefix; i++ {
			s.SetChunk(i, 1, uint64(rng.Intn(2)))
		}
		s.SetFixed(prefix)
		tt := rng.Intn(nbits)
		u := rng.Intn(n)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		law := fam.PairLaw(s, tt, u, v)
		sum := 0.0
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if law[a][b] < 0 || law[a][b] > 1 {
					t.Fatalf("probability out of range: %v", law)
				}
				sum += law[a][b]
			}
		}
		if math.Abs(sum-1) > 1e-15 {
			t.Fatalf("pair law sums to %v: %v", sum, law)
		}
		// Marginals must match BitLaw.
		mu := law[1][0] + law[1][1]
		if want := fam.BitLaw(s, tt, u).P1(); math.Abs(mu-want) > 1e-15 {
			t.Fatalf("marginal %v != BitLaw %v", mu, want)
		}
	}
}

func TestBitProbValues(t *testing.T) {
	if (BitProb{Determined: true, Value: 1}).P1() != 1 {
		t.Error("determined-1 law wrong")
	}
	if (BitProb{Determined: true, Value: 0}).P1() != 0 {
		t.Error("determined-0 law wrong")
	}
	if (BitProb{}).P1() != 0.5 {
		t.Error("free law wrong")
	}
}

func TestFamilyAccessors(t *testing.T) {
	fam, err := NewFamily(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fam.K() != EncodeBits(100) {
		t.Errorf("K = %d", fam.K())
	}
	if fam.NBits() != 4 {
		t.Errorf("NBits = %d", fam.NBits())
	}
	if fam.SegWidth() != fam.K()+1 {
		t.Errorf("SegWidth = %d", fam.SegWidth())
	}
	if fam.SeedBits() != 4*fam.SegWidth() {
		t.Errorf("SeedBits = %d", fam.SeedBits())
	}
	if _, err := NewFamily(1<<62, 1); err == nil {
		t.Error("oversized encoding accepted")
	}
}

func TestSeedReset(t *testing.T) {
	s := NewSeed(70)
	s.SetChunk(0, 60, ^uint64(0)>>4)
	s.Commit(60)
	s.Reset()
	if s.Fixed() != 0 {
		t.Fatalf("reset left fixed = %d", s.Fixed())
	}
	for i := 0; i < 70; i++ {
		if seedBit(s, i) != 0 {
			t.Fatalf("reset left bit %d set", i)
		}
	}
}

// TestChunkStateMatchesBitLaw: for every chunk value e, the chunk-relative
// law from ChunkState.Lin must be the law BitLaw gives once the chunk is
// written as e and counted as fixed — for vertex vectors and pair XORs.
func TestChunkStateMatchesBitLaw(t *testing.T) {
	const n, nbits = 37, 3
	fam, err := NewFamily(n, nbits)
	if err != nil {
		t.Fatal(err)
	}
	segW := fam.SegWidth()
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		s := fam.NewSeed()
		tt := rng.Intn(nbits)
		start := tt*segW + rng.Intn(segW)
		width := rng.Intn(tt*segW + segW - start + 1)
		for i := 0; i < start; i++ {
			s.SetChunk(i, 1, uint64(rng.Intn(2)))
		}
		s.SetFixed(start)
		cs := fam.ChunkState(s, tt, start, width)
		prov := s.Clone()
		prov.SetFixed(start + width)
		for e := uint64(0); e < 1<<uint(width); e++ {
			prov.SetChunk(start, width, e)
			for p := 0; p < 10; p++ {
				a := fam.Coeff(rng.Intn(n))
				if p%2 == 1 {
					a ^= fam.Coeff(rng.Intn(n))
				}
				want := fam.bitLaw(prov, tt, a)
				det, par, m := cs.Lin(a)
				got := BitProb{Determined: det}
				if det {
					got.Value = par ^ uint64(bits.OnesCount64(e&m))&1
				}
				if got != want {
					t.Fatalf("trial %d t=%d chunk [%d,%d) e=%d a=%b: Lin gives %+v, BitLaw %+v",
						trial, tt, start, start+width, e, a, got, want)
				}
			}
		}
	}
}
