package rulingset

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/rulingset/mprs/internal/hash"
)

// markState tracks, incrementally across conditional-expectation chunks, the
// mark distribution induced by an AND-of-linear-bits family under a
// partially fixed seed. It exploits the segment structure of the seed to
// make every conditional probability O(1):
//
//   - segments strictly before the fixed frontier are fully determined, so a
//     vertex's contribution from them collapses to an "alive" predicate
//     (every fixed segment evaluated to 1), summarized per vertex by the
//     index of its first zero segment;
//   - at most one segment is partially fixed at any time (chunks are aligned
//     to segment boundaries), and its law as a function of the provisional
//     chunk comes from hash.ChunkState in O(1);
//   - fully free segments contribute exactly 1/2 per marginal bit and 1/4
//     per pairwise-joint bit.
//
// Mark probabilities are per-vertex: vertex v is marked with probability
// 2^-j(v), realized as the AND of the first j(v) linear bits of the shared
// stack, which keeps distinct-vertex marks pairwise independent even with
// heterogeneous probabilities.
type markState struct {
	fam *hash.Bits
	// firstZero[v] is the smallest fully-fixed segment t with X_t(v) = 0, or
	// fam.NBits() if all fixed segments evaluated to 1.
	firstZero []int32
	// fixedSegs counts fully committed segments.
	fixedSegs int
}

func newMarkState(fam *hash.Bits, n int) *markState {
	ms := &markState{
		fam:       fam,
		firstZero: make([]int32, n),
	}
	sentinel := int32(fam.NBits())
	for i := range ms.firstZero {
		ms.firstZero[i] = sentinel
	}
	return ms
}

// sync advances the fully-fixed frontier to match the committed prefix of s,
// updating the per-vertex first-zero indices for newly completed segments.
// Must be called single-threaded (the derandomizer's OnChunk hook and after
// the final commit).
func (ms *markState) sync(s *hash.Seed) {
	segW := ms.fam.SegWidth()
	newFull := s.Fixed() / segW
	if newFull > ms.fam.NBits() {
		newFull = ms.fam.NBits()
	}
	sentinel := int32(ms.fam.NBits())
	for t := ms.fixedSegs; t < newFull; t++ {
		for v := range ms.firstZero {
			if ms.firstZero[v] != sentinel {
				continue
			}
			if law := ms.fam.BitLaw(s, t, v); law.Determined && law.Value == 0 {
				ms.firstZero[v] = int32(t)
			}
		}
	}
	ms.fixedSegs = newFull
}

// chunk returns the partially fixed segment's view for the chunk [start,
// start+width), which begins at the committed frontier ms is synced to; it
// is the zero view when every segment is fixed (only width 0 is then
// possible).
func (ms *markState) chunk(s *hash.Seed, start, width int) hash.ChunkState {
	if ms.fixedSegs >= ms.fam.NBits() {
		return hash.ChunkState{}
	}
	return ms.fam.ChunkState(s, ms.fixedSegs, start, width)
}

// deadBit is 1 for a dead vertex with firstZero entry fz, one whose first
// zero is among its fully fixed bits (fz < f, the fixed segments counted up
// to its exponent), and 0 otherwise: a dead vertex's mark and pair
// probabilities are 0 whatever the chunk value.
func deadBit(fz int32, f int64) uint64 { return uint64(int64(fz)-f) >> 63 }

// chunkCodes is the partial segment's law under one chunk, in the form the
// one-pass kernels read (sparsifyEstimator, lubyEstimator): a vertex's law
// packs into one code word, and a pair's is the XOR of its two codes. Every
// vertex shares the one partial segment, ms.fixedSegs, so a code does not
// depend on the vertex's exponent: the exponent only decides whether the
// partial segment is among the vertex's bits at all, and how many free
// segments follow it.
//
// Coeff(v) always holds the constant coordinate k, the segment's last, so
// ChunkState.Lin is determined for every vertex or for none: exactly when
// the chunk reaches that coordinate (Ft+Z > k). code(v) holds v's committed
// parity ⟨Pre, a_v⟩ in bit 0 and a_v's coordinates from Ft on above it: the
// chunk slice m_v in bits [1, Z+1), the key a_v >> (Ft+Z) from bit Z+1 on.
// Pre has no coordinate from Ft on, so the XOR of two codes holds the pair's
// parity and chunk slice, and its key is zero exactly when Lin(a_u ⊕ a_x) is
// determined (always, in a determined chunk).
type chunkCodes struct {
	pre   uint64
	top   uint64 // 1<<k, the constant coordinate
	ft    uint
	keyAt uint   // Z+1, the key's first bit in a code
	mask  uint64 // 2^Z − 1
	det   bool   // every vertex's bit is determined by the chunk value
}

func newChunkCodes(fam *hash.Bits, cs hash.ChunkState) chunkCodes {
	return chunkCodes{
		pre:   cs.Pre,
		top:   1 << uint(fam.K()),
		ft:    uint(cs.Ft),
		keyAt: uint(cs.Z) + 1,
		mask:  1<<uint(cs.Z) - 1,
		det:   cs.Ft+cs.Z > fam.K(),
	}
}

// code returns v's code word.
func (c chunkCodes) code(v int) uint64 {
	a := uint64(v+1) | c.top
	return (a>>c.ft)<<1 | uint64(bits.OnesCount64(c.pre&a))&1
}

// slot returns the spectrum index of a code, or of a code XOR: the chunk
// slice m.
func (c chunkCodes) slot(x uint64) uint64 { return x >> 1 & c.mask }

// coupled reports whether the code XOR x of a pair has a zero key: the
// pair's bits are determined by the chunk value, or coupled, so their
// product term is nonzero.
func (c chunkCodes) coupled(x uint64) bool { return x>>c.keyAt == 0 }

// signed returns (−1)^par·q.
func signed(q int64, par uint64) int64 {
	if par != 0 {
		return -q
	}
	return q
}

// units returns the exponent u of the int64 units 2^−u an estimator with
// exponents at most maxJ scores in, when its cost terms are weighted by α =
// 2^k: 2^(2·maxJ) units make every mark and pair probability an integer, and
// k < 0 needs −k more bits for α·cost. Luby's estimator has k = 0.
func units(maxJ, k int) int { return 2*maxJ + max(0, -k) }

// checkExact returns an error unless an estimator's int64 values are exact
// and convert to float64 exactly. The estimator has exponents at most maxJ
// and weighs its cost terms by α = 2^k (Luby's has k = 0); it scores terms
// mark and pair terms in units of 2^−u, u = units(maxJ, k). Each term is a
// probability times a weight, and weight sums the weights' absolute values.
//
//   - A term's coefficients sum in absolute value to at most its weight, so
//     every value — a spectrum coefficient, its Walsh transform, a sum over
//     machines — is at most weight·2^u units in absolute value. While u +
//     log₂ weight ≤ 62, int64 accumulation cannot overflow.
//   - With f segments fixed every value is a multiple of 2^2f units, and in
//     those units each term's coefficients sum in absolute value to at most
//     2^(2·maxJ+|k|): a sparsify term weighs α or 1, and a Luby term,
//     weighted by at most 2^(j−1) at exponent j, sums to at most 2^f. So
//     while 2·maxJ + |k| + log₂ terms ≤ 53, every value has at most 53
//     significant bits. That limit guards only the exact float64
//     conversion of the reported values (PhaseStat.EstimatorInitial and
//     EstimatorFinal).
func checkExact(maxJ, k, terms int, weight float64) error {
	if bits := 2*maxJ + max(k, -k); float64(terms) > math.Ldexp(1, 53-bits) {
		return fmt.Errorf("rulingset: %d estimator terms at exponent %d (log₂ α = %d) exceed float64's exact range (2·j + |log₂ α| + log₂ terms > 53)", terms, maxJ, k)
	}
	if u := units(maxJ, k); weight > math.Ldexp(1, 62-u) {
		return fmt.Errorf("rulingset: estimator weight %v at exponent %d exceeds int64's range (log₂ weight + %d > 62)", weight, maxJ, u)
	}
	return nil
}

// marked reports the realized mark of v under a fully fixed, synced seed.
func (ms *markState) marked(v, j int) bool {
	return int(ms.firstZero[v]) >= j
}
