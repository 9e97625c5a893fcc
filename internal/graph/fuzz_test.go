package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList: the text parser must never panic and must only produce
// graphs that pass Validate; valid parses must round-trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("3 1\n0 1\n")
	f.Add("5 4\n0 1\n1 2\n2 3\n3 4\n")
	f.Add("# comment\n2 1\n\n0 1\n")
	f.Add("0 0\n")
	f.Add("1 0\n")
	f.Add("huge 1\n0 1\n")
	f.Add("2 1\n0 0\n")
	f.Add("-1 -1\n")
	f.Add("3 1\n0 1 2\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parser produced invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write-back: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip parse: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed the graph: %v vs %v", back, g)
		}
	})
}
