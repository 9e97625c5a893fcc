package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Count() != 0 {
		t.Fatalf("new set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Contains(i) {
			t.Errorf("missing %d", i)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Errorf("contains spurious elements")
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 2 {
		t.Errorf("remove failed")
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Add(-1)
	s.Add(10)
	s.Add(1000)
	if s.Count() != 0 {
		t.Fatalf("out-of-range adds must be ignored")
	}
	if s.Contains(-1) || s.Contains(10) {
		t.Fatalf("out-of-range contains must be false")
	}
	s.Remove(-1) // must not panic
	s.Remove(99)
}

func TestFillAndClear(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("n=%d: fill count = %d", n, s.Count())
		}
		s.ForEach(func(i int) bool {
			if i < 0 || i >= n {
				t.Errorf("n=%d: iterated out-of-range %d", n, i)
			}
			return true
		})
		s.Clear()
		if s.Count() != 0 {
			t.Errorf("n=%d: clear count = %d", n, s.Count())
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}
	u := a.Clone()
	u.Union(b)
	inter := a.Clone()
	inter.Intersect(b)
	diff := a.Clone()
	diff.Subtract(b)
	for i := 0; i < 100; i++ {
		even, third := i%2 == 0, i%3 == 0
		if u.Contains(i) != (even || third) {
			t.Errorf("union wrong at %d", i)
		}
		if inter.Contains(i) != (even && third) {
			t.Errorf("intersect wrong at %d", i)
		}
		if diff.Contains(i) != (even && !third) {
			t.Errorf("subtract wrong at %d", i)
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New(50)
	a.Add(7)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone not equal")
	}
	b.Add(8)
	if a.Equal(b) {
		t.Fatalf("mutated clone still equal")
	}
	if a.Equal(New(51)) {
		t.Fatalf("different capacities must not be equal")
	}
}

func TestElementsSortedAndComplete(t *testing.T) {
	check := func(raw []uint16) bool {
		s := New(1 << 16)
		want := make(map[int]bool)
		for _, r := range raw {
			s.Add(int(r))
			want[int(r)] = true
		}
		got := s.Elements()
		if len(got) != len(want) {
			return false
		}
		for i, e := range got {
			if !want[e] {
				return false
			}
			if i > 0 && got[i-1] >= e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i++ {
		s.Add(i)
	}
	visited := 0
	s.ForEach(func(i int) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Fatalf("early stop visited %d, want 5", visited)
	}
}

func TestUnionDeMorganProperty(t *testing.T) {
	// |A ∪ B| + |A ∩ B| == |A| + |B| for random sets.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
			}
		}
		u := a.Clone()
		u.Union(b)
		in := a.Clone()
		in.Intersect(b)
		if u.Count()+in.Count() != a.Count()+b.Count() {
			t.Fatalf("trial %d: inclusion-exclusion violated", trial)
		}
	}
}

func TestZeroValue(t *testing.T) {
	var s Set
	if s.Count() != 0 || s.Len() != 0 {
		t.Fatalf("zero value must be empty")
	}
	s.Add(0) // ignored, must not panic
	if s.Contains(0) {
		t.Fatalf("zero value must stay empty")
	}
}

func TestPackUnpackRange(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 100, 131, 199} {
		s.Add(i)
	}
	for _, r := range [][2]int{{0, 200}, {0, 64}, {60, 70}, {64, 128}, {131, 132}, {199, 200}, {50, 50}} {
		lo, hi := r[0], r[1]
		packed := s.PackRange(lo, hi)
		dst := New(200)
		dst.Fill() // unpack must overwrite, not merge
		dst.UnpackRange(lo, hi, packed)
		for i := 0; i < 200; i++ {
			want := s.Contains(i)
			if i < lo || i >= hi {
				want = true // outside the range: untouched (still filled)
			}
			if dst.Contains(i) != want {
				t.Fatalf("range [%d,%d): index %d = %v, want %v", lo, hi, i, dst.Contains(i), want)
			}
		}
	}
	// Clamping: out-of-range bounds never panic.
	if got := s.PackRange(-5, 500); len(got) != (200+63)/64 {
		t.Fatalf("clamped pack length = %d", len(got))
	}
	s.UnpackRange(-5, 500, nil) // clears everything
	if s.Count() != 0 {
		t.Fatalf("unpack with empty payload left %d bits", s.Count())
	}
}

// TestNextMatchesContainsScan checks Next against a brute-force Contains
// scan for every start i in [-3, n+3): sizes with and without a partial last
// word, empty sets, sets whose members are far apart (whole empty words in
// between), dense and full sets, and the zero value.
func TestNextMatchesContainsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130, 200, 257} {
		for trial := 0; trial < 12; trial++ {
			s := New(n)
			switch trial % 4 {
			case 1: // sparse: most words empty
				for k := 0; k < 3; k++ {
					s.Add(rng.Intn(n + 1))
				}
			case 2:
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						s.Add(i)
					}
				}
			case 3:
				s.Fill()
			}
			for i := -3; i < n+3; i++ {
				want := -1
				for j := max(i, 0); j < n; j++ {
					if s.Contains(j) {
						want = j
						break
					}
				}
				if got := s.Next(i); got != want {
					t.Fatalf("n=%d trial %d: Next(%d) = %d, want %d (set %v)", n, trial, i, got, want, s.Elements())
				}
			}
		}
	}
	var zero Set
	for _, i := range []int{-1, 0, 5} {
		if got := zero.Next(i); got != -1 {
			t.Fatalf("zero value: Next(%d) = %d, want -1", i, got)
		}
	}
}

// countRangeByContains is CountRange's reference: one Contains per index.
func countRangeByContains(s *Set, lo, hi int) int {
	c := 0
	for i := lo; i < hi; i++ {
		if s.Contains(i) {
			c++
		}
	}
	return c
}

// TestCountRange checks CountRange at the word boundaries: lo and hi at 0,
// 63, 64, 65 and n, on a zero-value, an empty, a full and a mixed set,
// including empty, reversed and out-of-range ranges.
func TestCountRange(t *testing.T) {
	const n = 200
	empty, full, mixed := New(n), New(n), New(n)
	full.Fill()
	for i := 0; i < n; i += 3 {
		mixed.Add(i)
	}
	mixed.Add(63)
	mixed.Add(64)
	ends := []int{-5, 0, 1, 63, 64, 65, 127, 128, 129, n - 1, n, n + 7}
	for _, tc := range []struct {
		name string
		s    *Set
	}{{"zero", &Set{}}, {"empty", empty}, {"full", full}, {"mixed", mixed}} {
		name, s := tc.name, tc.s
		for _, lo := range ends {
			for _, hi := range ends {
				if got, want := s.CountRange(lo, hi), countRangeByContains(s, lo, hi); got != want {
					t.Errorf("%s.CountRange(%d, %d) = %d, want %d", name, lo, hi, got, want)
				}
			}
		}
	}
}

// FuzzCountRange checks CountRange against the Contains loop on a set of up
// to 1023 indices whose words are random draws from seed masked by seed, so
// a sparse seed gives a sparse set.
func FuzzCountRange(f *testing.F) {
	f.Add(uint16(200), uint64(0x8000_0000_0000_0001), int16(63), int16(65))
	f.Add(uint16(64), ^uint64(0), int16(0), int16(64))
	f.Add(uint16(129), uint64(0xdead_beef), int16(-3), int16(300))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, lo, hi int16) {
		s := New(int(n % 1024))
		r := rand.New(rand.NewSource(int64(seed)))
		for i := range s.words {
			s.words[i] = r.Uint64() & seed
		}
		s.trimTail()
		if got, want := s.CountRange(int(lo), int(hi)), countRangeByContains(s, int(lo), int(hi)); got != want {
			t.Fatalf("n=%d CountRange(%d, %d) = %d, want %d", s.n, lo, hi, got, want)
		}
	})
}
