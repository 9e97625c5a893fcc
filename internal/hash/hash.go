// Package hash implements the pairwise-independent hash families that drive
// the paper's derandomization, together with exact conditional distributions
// of hash values given a partially fixed seed — the computation at the heart
// of the distributed method of conditional expectations.
//
// # Construction
//
// A single "linear bit" is the GF(2)-affine function
//
//	X(v) = ⟨r, enc(v)⟩ ⊕ c
//
// where enc(v) is the k-bit binary encoding of v+1 and the seed is the k+1
// bits (r, c). Over a uniformly random seed, X(v) is an unbiased coin, and
// for u ≠ v the pair (X(u), X(v)) is uniform on {0,1}² — the coefficient
// vectors a_u = (enc(u),1) and a_v = (enc(v),1) are distinct and nonzero,
// hence linearly independent over GF(2).
//
// Stacking j independent linear bits yields the one primitive the
// algorithms need, the AND-family Bits: mark(v) = X₁(v) ∧ … ∧ X_j(v) is a
// Bernoulli 2^{-j} mark, pairwise independent across vertices. The
// sparsification phases mark every vertex with one power-of-two
// probability; Luby's marks read a per-vertex prefix of the bits, rounding
// 1/(2d(v)) down to a power of two.
//
// # Conditional distributions
//
// The method of conditional expectations fixes seed bits left to right. For
// any prefix of fixed bits, each linear bit X(v) is (exactly) one of:
// determined, or uniform; and a pair (X(u), X(v)) additionally may be
// "coupled" (X(u) ⊕ X(v) determined). All conditional probabilities exposed
// here are exact dyadic rationals computed in O(1) per linear bit.
package hash

import (
	"fmt"
	"math/bits"
)

// EncodeBits returns the number of bits k needed to encode vertices of a
// graph with n vertices (enc(v) = v+1 must fit in k bits).
func EncodeBits(n int) int {
	if n <= 0 {
		return 1
	}
	return bits.Len(uint(n)) // v+1 <= n fits in Len(n) bits
}

// Seed is a packed vector of seed bits with a fixed prefix. Bits in
// [0, Fixed) have committed values; the remaining bits are "free"
// (conceptually uniform random). The zero value is an empty seed.
type Seed struct {
	words []uint64
	total int
	fixed int
}

// NewSeed returns an all-zero seed of the given bit length with an empty
// fixed prefix.
func NewSeed(total int) *Seed {
	return &Seed{
		words: make([]uint64, (total+63)/64),
		total: total,
	}
}

// Total returns the seed length in bits.
func (s *Seed) Total() int { return s.total }

// Fixed returns the length of the committed prefix.
func (s *Seed) Fixed() int { return s.fixed }

// SetChunk writes the z low bits of value into seed bits [at, at+z) without
// changing the fixed prefix length. Used to try candidate extensions.
func (s *Seed) SetChunk(at, z int, value uint64) {
	for i := 0; i < z; i++ {
		idx := at + i
		w, b := idx/64, uint(idx%64)
		if value>>uint(i)&1 == 1 {
			s.words[w] |= 1 << b
		} else {
			s.words[w] &^= 1 << b
		}
	}
}

// Commit extends the fixed prefix by z bits (whose values must already have
// been written with SetChunk).
func (s *Seed) Commit(z int) {
	s.SetFixed(s.fixed + z)
}

// SetFixed sets the fixed-prefix length directly (clamped to [0, Total]).
// Seed selection uses it on clones to evaluate conditional expectations with
// a provisional chunk counted as fixed.
func (s *Seed) SetFixed(f int) {
	if f < 0 {
		f = 0
	}
	if f > s.total {
		f = s.total
	}
	s.fixed = f
}

// Reset clears all bits and the fixed prefix.
func (s *Seed) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.fixed = 0
}

// Clone returns an independent copy.
func (s *Seed) Clone() *Seed {
	c := &Seed{
		words: make([]uint64, len(s.words)),
		total: s.total,
		fixed: s.fixed,
	}
	copy(c.words, s.words)
	return c
}

// chunk extracts width bits starting at bit offset at (width <= 64).
func (s *Seed) chunk(at, width int) uint64 {
	w, b := at/64, uint(at%64)
	v := s.words[w] >> b
	if b != 0 && w+1 < len(s.words) {
		v |= s.words[w+1] << (64 - b)
	}
	if width == 64 {
		return v
	}
	return v & ((1 << uint(width)) - 1)
}

// BitProb is the conditional law of a single linear bit: either determined
// with a known value, or uniform.
type BitProb struct {
	Determined bool
	Value      uint64 // meaningful when Determined
}

// P1 returns P[X = 1] for this law.
func (b BitProb) P1() float64 {
	if b.Determined {
		return float64(b.Value)
	}
	return 0.5
}

// PairProb is the exact conditional joint law of a pair of linear bits
// (X(u), X(v)): P[X(u)=a ∧ X(v)=b] for a,b ∈ {0,1}.
type PairProb [2][2]float64

// P11 returns P[X(u)=1 ∧ X(v)=1].
func (p PairProb) P11() float64 { return p[1][1] }

// Family is a stack of nbits independent linear bits over k-bit vertex
// encodings. Seed layout: linear bit t occupies seed bits
// [t·(k+1), (t+1)·(k+1)): first the k coefficients r, then the constant c.
type Family struct {
	k     int // encoding bits
	nbits int // number of stacked linear bits
}

// NewFamily returns a family of nbits linear bits for graphs with up to n
// vertices.
func NewFamily(n, nbits int) (*Family, error) {
	if nbits < 1 {
		return nil, fmt.Errorf("hash: nbits %d < 1", nbits)
	}
	k := EncodeBits(n)
	if k+1 > 63 {
		return nil, fmt.Errorf("hash: vertex encoding of %d bits too wide", k)
	}
	return &Family{k: k, nbits: nbits}, nil
}

// SeedBits returns the total seed length in bits.
func (f *Family) SeedBits() int { return f.nbits * (f.k + 1) }

// K returns the vertex-encoding width in bits.
func (f *Family) K() int { return f.k }

// NBits returns the number of stacked linear bits.
func (f *Family) NBits() int { return f.nbits }

// SegWidth returns the seed-segment width per linear bit (K()+1: the k
// coefficients plus the constant term).
func (f *Family) SegWidth() int { return f.k + 1 }

// NewSeed allocates a zeroed seed of the right length for this family.
func (f *Family) NewSeed() *Seed { return NewSeed(f.SeedBits()) }

// Coeff returns the coefficient vector a_v = (enc(v), 1): bit i < k is bit
// i of v+1, bit k is the constant term. The XOR of two of them is the
// vector of X(u) ⊕ X(v).
func (f *Family) Coeff(v int) uint64 {
	return uint64(v+1) | 1<<uint(f.k)
}

// bitLaw computes the conditional law of linear bit t applied to coefficient
// vector a, given the seed's fixed prefix. O(1).
func (f *Family) bitLaw(s *Seed, t int, a uint64) BitProb {
	width := f.k + 1
	at := t * width
	// ft = number of this linear bit's seed coordinates that are fixed.
	ft := s.fixed - at
	if ft < 0 {
		ft = 0
	} else if ft > width {
		ft = width
	}
	seg := s.chunk(at, width)
	fixedMask := uint64(1)<<uint(ft) - 1
	known := uint64(bits.OnesCount64(seg&a&fixedMask)) & 1
	if a>>uint(ft) != 0 { // some participating coordinate is still free
		return BitProb{}
	}
	return BitProb{Determined: true, Value: known}
}

// BitLaw returns the conditional law of linear bit t at vertex v.
func (f *Family) BitLaw(s *Seed, t, v int) BitProb {
	return f.bitLaw(s, t, f.Coeff(v))
}

// PairLaw returns the exact conditional joint law of linear bit t at the
// distinct vertices u and v. O(1).
func (f *Family) PairLaw(s *Seed, t, u, v int) PairProb {
	au, av := f.Coeff(u), f.Coeff(v)
	lu := f.bitLaw(s, t, au)
	lv := f.bitLaw(s, t, av)
	var p PairProb
	switch {
	case lu.Determined && lv.Determined:
		p[lu.Value][lv.Value] = 1
	case lu.Determined:
		p[lu.Value][0] = 0.5
		p[lu.Value][1] = 0.5
	case lv.Determined:
		p[0][lv.Value] = 0.5
		p[1][lv.Value] = 0.5
	default:
		// Both free: coupled iff the XOR vector has no free coordinate.
		lx := f.bitLaw(s, t, au^av)
		if lx.Determined {
			// X(u) uniform, X(v) = X(u) ⊕ lx.Value.
			p[0][lx.Value] = 0.5
			p[1][1^lx.Value] = 0.5
		} else {
			p[0][0], p[0][1], p[1][0], p[1][1] = 0.25, 0.25, 0.25, 0.25
		}
	}
	return p
}

// ChunkState is the view of one linear bit's seed segment while a chunk of
// it is provisional: coordinates [0, Ft) are committed with values Pre, the
// chunk holds coordinates [Ft, Ft+Z), and the rest are free. It gives the
// law of ⟨segment, a⟩ as a function of the chunk value e, which lets a seed
// search score all 2^Z extensions at once (see Lin).
type ChunkState struct {
	Pre uint64 // the committed coordinates' values (bits ≥ Ft are zero)
	Ft  int    // number of committed coordinates
	Z   int    // chunk width
}

// ChunkState returns linear bit t's view for the chunk [start, start+width)
// of s, which must lie inside t's segment and begin at its committed
// frontier; seed bits from start on are not read.
func (f *Family) ChunkState(s *Seed, t, start, width int) ChunkState {
	ft := start - t*(f.k+1)
	return ChunkState{
		Pre: s.chunk(t*(f.k+1), f.k+1) & (uint64(1)<<uint(ft) - 1),
		Ft:  ft,
		Z:   width,
	}
}

// Lin returns the law of the linear form ⟨segment, a⟩ for chunk value e:
// free (det false, uniform whatever e is) when a has a coordinate beyond
// the chunk, else determined as par ⊕ ⟨e, m⟩, where par is the committed
// coordinates' parity against a and m is a's slice over the chunk.
func (c ChunkState) Lin(a uint64) (det bool, par, m uint64) {
	if a>>uint(c.Ft+c.Z) != 0 {
		return false, 0, 0
	}
	return true, uint64(bits.OnesCount64(c.Pre&a)) & 1, a >> uint(c.Ft)
}

// Bits is the j-fold AND family: mark(v) has probability exactly 2^{-j} and
// marks are pairwise independent.
type Bits struct {
	*Family
}

// NewBits returns the AND-of-j-bits marking family for up to n vertices.
func NewBits(n, j int) (*Bits, error) {
	f, err := NewFamily(n, j)
	if err != nil {
		return nil, err
	}
	return &Bits{Family: f}, nil
}

// J returns the number of AND-ed bits (marking probability is 2^-J).
func (b *Bits) J() int { return b.nbits }

// MarkProb returns P[mark(v) = 1 | fixed prefix of s], exactly.
func (b *Bits) MarkProb(s *Seed, v int) float64 {
	p := 1.0
	for t := 0; t < b.nbits; t++ {
		p *= b.BitLaw(s, t, v).P1()
		if p == 0 {
			return 0
		}
	}
	return p
}

// PairMarkProb returns P[mark(u) ∧ mark(v) | fixed prefix of s] for distinct
// u, v, exactly.
func (b *Bits) PairMarkProb(s *Seed, u, v int) float64 {
	p := 1.0
	for t := 0; t < b.nbits; t++ {
		p *= b.PairLaw(s, t, u, v).P11()
		if p == 0 {
			return 0
		}
	}
	return p
}
