package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func randomGraph(t *testing.T, seed int64, n int, p float64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	g, err := New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(t, 3, 25, 0.3)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !graphsEqual(g, got) {
		t.Fatal("edge list round trip mismatch")
	}
}

func TestEdgeListParsing(t *testing.T) {
	tests := []struct {
		name    string
		input   string
		wantErr bool
	}{
		{name: "comments and blanks", input: "# header\n3 1\n\n0 1\n"},
		{name: "missing header", input: "", wantErr: true},
		{name: "bad fields", input: "3 1\n0 1 2\n", wantErr: true},
		{name: "non-numeric", input: "3 1\nx y\n", wantErr: true},
		{name: "edge count mismatch", input: "3 2\n0 1\n", wantErr: true},
		{name: "out of range", input: "2 1\n0 5\n", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tt.input))
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}
