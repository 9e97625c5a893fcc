package rulingset

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
)

func TestGreedyMISKnownGraphs(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*graph.Graph, error)
		want  []int32
	}{
		{name: "path5", build: func() (*graph.Graph, error) { return gen.Path(5) }, want: []int32{0, 2, 4}},
		{name: "star6", build: func() (*graph.Graph, error) { return gen.Star(6) }, want: []int32{0}},
		{name: "complete4", build: func() (*graph.Graph, error) { return gen.Complete(4) }, want: []int32{0}},
		{name: "edgeless", build: func() (*graph.Graph, error) { return graph.New(3, nil) }, want: []int32{0, 1, 2}},
		{name: "empty", build: func() (*graph.Graph, error) { return graph.New(0, nil) }, want: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := tt.build()
			if err != nil {
				t.Fatal(err)
			}
			got := GreedyMIS(g)
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

// maximality: an independent set is maximal iff it is a 1-ruling set.
func TestGreedyMISMaximalOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		g, err := gen.GNP(n, math.Min(1, 3/float64(n)), rng)
		if err != nil {
			t.Fatal(err)
		}
		mis := GreedyMIS(g)
		if !IsRulingSet(g, mis, 1) {
			t.Fatalf("trial %d: greedy output is not an MIS", trial)
		}
	}
}
