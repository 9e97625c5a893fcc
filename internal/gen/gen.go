// Package gen provides graph generators for the evaluation workloads.
//
// The paper under reproduction is a brief announcement with no evaluation
// section, so the workload families here are chosen to (a) cover the regimes
// the theory distinguishes (small vs. large Δ, sparse vs. dense, structured
// vs. random) and (b) include adversarial shapes (stars, barbells) that
// stress ruling-set algorithms. All randomized generators take an explicit
// *rand.Rand so every workload is reproducible from a seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/rulingset/mprs/internal/graph"
)

// GNP returns an Erdős–Rényi random graph G(n, p) using the geometric
// skipping method, which runs in O(n + m) expected time.
func GNP(n int, p float64, rng *rand.Rand) (*graph.Graph, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: probability %v out of [0,1]", p)
	}
	var edges []graph.Edge
	if p > 0 && n > 1 {
		// Room for the expected edge count plus four standard deviations,
		// so append almost never regrows the list.
		mean := p * float64(n) * float64(n-1) / 2
		edges = make([]graph.Edge, 0, int(mean+4*math.Sqrt(mean))+1)
		lq := math.Log1p(-p) // log(1-p), p < 1
		v, w := 1, -1
		for v < n {
			var skip int
			if p >= 1 {
				skip = 1
			} else {
				r := rng.Float64()
				skip = 1 + int(math.Log1p(-r)/lq)
				if skip < 1 {
					skip = 1
				}
			}
			w += skip
			for w >= v && v < n {
				w -= v
				v++
			}
			if v < n {
				edges = append(edges, graph.Edge{U: int32(w), V: int32(v)})
			}
		}
	}
	return graph.New(n, edges)
}

// RandomRegular returns a random d-regular graph on n vertices via the
// configuration model with edge-swap repair: stubs are paired uniformly at
// random, then self-loops and parallel edges are eliminated by random
// double-edge swaps (which preserve the degree sequence). n*d must be even
// and d < n.
func RandomRegular(n, d int, rng *rand.Rand) (*graph.Graph, error) {
	if d < 0 || d >= n {
		return nil, fmt.Errorf("gen: degree %d out of range for n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: n*d=%d*%d must be even", n, d)
	}
	if d == 0 {
		return graph.New(n, nil)
	}
	stubs := make([]int32, n*d)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			stubs[v*d+j] = int32(v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) {
		stubs[i], stubs[j] = stubs[j], stubs[i]
	})
	pairs := make([][2]int32, 0, len(stubs)/2)
	for i := 0; i < len(stubs); i += 2 {
		pairs = append(pairs, [2]int32{stubs[i], stubs[i+1]})
	}

	type key struct{ a, b int32 }
	mk := func(u, v int32) key {
		if u > v {
			u, v = v, u
		}
		return key{a: u, b: v}
	}
	multiplicity := make(map[key]int, len(pairs))
	bad := func(p [2]int32) bool {
		return p[0] == p[1] || multiplicity[mk(p[0], p[1])] > 1
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			multiplicity[mk(p[0], p[1])]++
		}
	}

	// Repair: swap endpoints between a bad pair and a random pair whenever
	// the swap strictly removes the defect without creating a new one.
	maxAttempts := 200 * len(pairs) * (d + 1)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		badIdx := -1
		for i, p := range pairs {
			if bad(p) {
				badIdx = i
				break
			}
		}
		if badIdx == -1 {
			edges := make([]graph.Edge, len(pairs))
			for i, p := range pairs {
				edges[i] = graph.Edge{U: p[0], V: p[1]}
			}
			return graph.New(n, edges)
		}
		other := rng.Intn(len(pairs))
		if other == badIdx {
			continue
		}
		p, q := pairs[badIdx], pairs[other]
		// Proposed swap: (p0,q1) and (q0,p1).
		a, b := [2]int32{p[0], q[1]}, [2]int32{q[0], p[1]}
		if a[0] == a[1] || b[0] == b[1] {
			continue
		}
		ka, kb := mk(a[0], a[1]), mk(b[0], b[1])
		if multiplicity[ka] > 0 || multiplicity[kb] > 0 || ka == kb {
			continue
		}
		// Commit: retract old pairs, install new ones.
		for _, old := range [][2]int32{p, q} {
			if old[0] != old[1] {
				k := mk(old[0], old[1])
				if multiplicity[k]--; multiplicity[k] == 0 {
					delete(multiplicity, k)
				}
			}
		}
		multiplicity[ka]++
		multiplicity[kb]++
		pairs[badIdx], pairs[other] = a, b
	}
	return nil, fmt.Errorf("gen: regular-graph repair failed (n=%d, d=%d)", n, d)
}

// ChungLu returns a power-law random graph with expected degree sequence
// w_i ∝ (i+1)^(-1/(gamma-1)), scaled so the average expected degree is
// avgDeg, using the Miller–Hagberg efficient sampling algorithm. gamma must
// exceed 2.
func ChungLu(n int, gamma, avgDeg float64, rng *rand.Rand) (*graph.Graph, error) {
	if gamma <= 2 {
		return nil, fmt.Errorf("gen: power-law exponent %v must exceed 2", gamma)
	}
	if avgDeg <= 0 || n == 0 {
		return graph.New(n, nil)
	}
	w := make([]float64, n)
	sum := 0.0
	alpha := 1 / (gamma - 1)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -alpha)
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	// w is already sorted descending. Total weight:
	totalW := avgDeg * float64(n)

	var edges []graph.Edge
	for u := 0; u < n-1; u++ {
		v := u + 1
		p := math.Min(w[u]*w[v]/totalW, 1)
		for v < n && p > 0 {
			if p < 1 {
				r := rng.Float64()
				v += int(math.Floor(math.Log(r) / math.Log(1-p)))
			}
			if v < n {
				q := math.Min(w[u]*w[v]/totalW, 1)
				if rng.Float64() < q/p {
					edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
				}
				p = q
				v++
			}
		}
	}
	return graph.New(n, edges)
}

// Geometric returns a random geometric (unit-disk) graph: n points uniform
// in the unit square, an edge whenever two points lie within distance r.
// This is the standard model of wireless sensor networks. Neighbor search
// uses a bucket grid, so generation is O(n + m) expected.
func Geometric(n int, r float64, rng *rand.Rand) (*graph.Graph, error) {
	if r < 0 {
		return nil, fmt.Errorf("gen: negative radius %v", r)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	if r == 0 || n == 0 {
		return graph.New(n, nil)
	}
	cells := int(1 / r)
	if cells < 1 {
		cells = 1
	}
	bucket := make(map[[2]int][]int32)
	cellOf := func(i int) [2]int {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return [2]int{cx, cy}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		bucket[c] = append(bucket[c], int32(i))
	}
	r2 := r * r
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bucket[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= int32(i) {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						edges = append(edges, graph.Edge{U: int32(i), V: j})
					}
				}
			}
		}
	}
	return graph.New(n, edges)
}

// Grid returns the rows×cols grid graph; with wrap it becomes a torus.
func Grid(rows, cols int, wrap bool) (*graph.Graph, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("gen: negative grid dimensions %dx%d", rows, cols)
	}
	n := rows * cols
	id := func(r, c int) int32 { return int32(r*cols + c) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			} else if wrap && cols > 2 {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, 0)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			} else if wrap && rows > 2 {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(0, c)})
			}
		}
	}
	return graph.New(n, edges)
}

// Path returns the path graph on n vertices.
func Path(n int) (*graph.Graph, error) {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32(v + 1)})
	}
	return graph.New(n, edges)
}

// Cycle returns the cycle graph on n vertices (n >= 3).
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: cycle needs n >= 3, got %d", n)
	}
	edges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32((v + 1) % n)})
	}
	return graph.New(n, edges)
}

// Star returns the star K_{1,n-1} with vertex 0 at the center.
func Star(n int) (*graph.Graph, error) {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(v)})
	}
	return graph.New(n, edges)
}

// Complete returns the complete graph K_n.
func Complete(n int) (*graph.Graph, error) {
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
		}
	}
	return graph.New(n, edges)
}

// CompleteBipartite returns K_{a,b} with the first a vertices on one side.
func CompleteBipartite(a, b int) (*graph.Graph, error) {
	edges := make([]graph.Edge, 0, a*b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(a + v)})
		}
	}
	return graph.New(a+b, edges)
}

// RandomTree returns a uniform random recursive tree: vertex v attaches to a
// uniformly random vertex in [0, v).
func RandomTree(n int, rng *rand.Rand) (*graph.Graph, error) {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	}
	return graph.New(n, edges)
}

// PruferTree returns a uniformly random labelled tree via a random Prüfer
// sequence.
func PruferTree(n int, rng *rand.Rand) (*graph.Graph, error) {
	if n < 2 {
		return graph.New(n, nil)
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, s := range seq {
		deg[s]++
	}
	// Min-heap of current leaves, kept as a sorted scan using a pointer plus
	// an "active leaf" trick (standard linear-time Prüfer decoding).
	edges := make([]graph.Edge, 0, n-1)
	ptr := 0
	leaf := -1
	next := func() int {
		if leaf >= 0 {
			l := leaf
			leaf = -1
			return l
		}
		for deg[ptr] != 1 {
			ptr++
		}
		l := ptr
		ptr++
		return l
	}
	for _, s := range seq {
		l := next()
		edges = append(edges, graph.Edge{U: int32(l), V: int32(s)})
		deg[s]--
		if deg[s] == 1 && s < ptr {
			leaf = s
		}
	}
	u := next()
	v := next()
	edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	return graph.New(n, edges)
}

// Caterpillar returns a caterpillar tree: a spine path of the given length
// with legsPerSpine pendant vertices attached to every spine vertex.
func Caterpillar(spine, legsPerSpine int) (*graph.Graph, error) {
	if spine < 1 || legsPerSpine < 0 {
		return nil, fmt.Errorf("gen: bad caterpillar (spine=%d legs=%d)", spine, legsPerSpine)
	}
	n := spine * (1 + legsPerSpine)
	var edges []graph.Edge
	for s := 0; s+1 < spine; s++ {
		edges = append(edges, graph.Edge{U: int32(s), V: int32(s + 1)})
	}
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legsPerSpine; l++ {
			edges = append(edges, graph.Edge{U: int32(s), V: int32(next)})
			next++
		}
	}
	return graph.New(n, edges)
}

// Barbell returns two cliques K_k joined by a path with pathLen interior
// vertices.
func Barbell(k, pathLen int) (*graph.Graph, error) {
	if k < 1 || pathLen < 0 {
		return nil, fmt.Errorf("gen: bad barbell (k=%d path=%d)", k, pathLen)
	}
	n := 2*k + pathLen
	var edges []graph.Edge
	clique := func(base int) {
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				edges = append(edges, graph.Edge{U: int32(base + u), V: int32(base + v)})
			}
		}
	}
	clique(0)
	clique(k + pathLen)
	prev := int32(k - 1)
	for i := 0; i < pathLen; i++ {
		edges = append(edges, graph.Edge{U: prev, V: int32(k + i)})
		prev = int32(k + i)
	}
	edges = append(edges, graph.Edge{U: prev, V: int32(k + pathLen)})
	return graph.New(n, edges)
}

// Hypercube returns the d-dimensional hypercube graph Q_d on 2^d vertices.
func Hypercube(d int) (*graph.Graph, error) {
	if d < 0 || d > 24 {
		return nil, fmt.Errorf("gen: hypercube dimension %d out of [0,24]", d)
	}
	n := 1 << uint(d)
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << uint(b))
			if v < u {
				edges = append(edges, graph.Edge{U: int32(v), V: int32(u)})
			}
		}
	}
	return graph.New(n, edges)
}

// DisjointUnion returns the disjoint union of the given graphs, with vertex
// ids shifted in argument order.
func DisjointUnion(gs ...*graph.Graph) (*graph.Graph, error) {
	total := 0
	var edges []graph.Edge
	for _, g := range gs {
		base := int32(total)
		g.ForEachEdge(func(u, v int32) {
			edges = append(edges, graph.Edge{U: base + u, V: base + v})
		})
		total += g.N()
	}
	return graph.New(total, edges)
}

// RMAT returns a Graph500-style R-MAT (recursive matrix) random graph on
// 2^scale vertices with edgeFactor·2^scale edge samples, using the standard
// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) quadrant probabilities. R-MAT
// graphs are the de-facto benchmark workload of massively parallel graph
// processing: heavy-tailed, with community-like recursive structure.
// Self-loops are dropped and parallel samples merged, so the resulting
// simple graph usually has somewhat fewer than edgeFactor·2^scale edges.
func RMAT(scale, edgeFactor int, rng *rand.Rand) (*graph.Graph, error) {
	if scale < 0 || scale > 24 {
		return nil, fmt.Errorf("gen: rmat scale %d out of [0,24]", scale)
	}
	if edgeFactor < 0 {
		return nil, fmt.Errorf("gen: rmat edge factor %d < 0", edgeFactor)
	}
	const (
		a = 0.57
		b = 0.19
		c = 0.19
	)
	n := 1 << uint(scale)
	samples := edgeFactor * n
	edges := make([]graph.Edge, 0, samples)
	for s := 0; s < samples; s++ {
		u, v := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << uint(bit)
			case r < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		if u != v {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
		}
	}
	return graph.New(n, edges)
}
