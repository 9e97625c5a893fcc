package experiments

import (
	"bytes"
	"os"
	"path/filepath"
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
	if line, a, b, ok := firstDiff(first.String(), second.String()); !ok {
		t.Fatalf("renders differ first at line %d:\n%s\n%s", line, a, b)
	}
}

// quickGolden pins RunAll's quick render at seed 1 across commits, so an
// edit that drifts any experiment table fails here even though both renders
// of one commit agree. UPDATE_GOLDEN=1 rewrites it after an intentional
// change.
const quickGolden = "testdata/quick.golden"

func TestRunAllQuickGolden(t *testing.T) {
	var got bytes.Buffer
	if err := RunAll(Config{Quick: true, Seed: 1}, &got); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(quickGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if line, g, w, ok := firstDiff(got.String(), string(want)); !ok {
		t.Fatalf("quick render differs from %s first at line %d:\n got %s\nwant %s", quickGolden, line, g, w)
	}
}

// firstDiff compares two renders line by line and, when they differ,
// returns the first differing line number (1-based) and both lines; a
// missing line reads as "<end of output>".
func firstDiff(a, b string) (line int, la, lb string, same bool) {
	if a == b {
		return 0, "", "", true
	}
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		la, lb = "<end of output>", "<end of output>"
		if i < len(as) {
			la = as[i]
		}
		if i < len(bs) {
			lb = bs[i]
		}
		if la != lb {
			return i + 1, la, lb, false
		}
	}
}
