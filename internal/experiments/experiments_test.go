package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestIDsAndDescribe(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("have %d experiments, want 15", len(ids))
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("%s has no description", id)
		}
	}
	if Describe("nope") != "" {
		t.Error("unknown id described")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("T99", Config{Quick: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAllExperimentsQuick runs every experiment in quick mode and checks the
// report structure and the shape notes.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, Config{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != id {
				t.Fatalf("report id %q", rep.ID)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range rep.Tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q empty", tb.Title)
				}
			}
			if len(rep.Notes) == 0 {
				t.Fatal("no shape notes")
			}
			var b strings.Builder
			if err := rep.Render(&b); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), id+":") {
				t.Fatalf("render missing header:\n%s", b.String())
			}
			// Shape notes must not report a failed prediction (": false").
			for _, n := range rep.Notes {
				if strings.HasSuffix(n, "false") {
					t.Errorf("prediction failed: %s", n)
				}
			}
		})
	}
}

// TestRunAllDeterministic checks that the quick evaluation is a pure
// function of the seed: no column reads the host clock, so two renders are
// byte-identical.
func TestRunAllDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	for _, b := range []*bytes.Buffer{&first, &second} {
		if err := RunAll(Config{Quick: true, Seed: 1}, b); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		a, b := strings.Split(first.String(), "\n"), strings.Split(second.String(), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("renders differ first at line %d:\n%s\n%s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("renders differ in length: %d vs %d lines", len(a), len(b))
	}
}
