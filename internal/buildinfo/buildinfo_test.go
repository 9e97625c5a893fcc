package buildinfo

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGetIsStableAndStamped(t *testing.T) {
	a, b := Get(), Get()
	if a != b {
		t.Fatalf("Get is not a pure function of the binary: %+v vs %+v", a, b)
	}
	if a.GoVersion == "" {
		t.Error("stamp missing the go toolchain version")
	}
	// Test binaries are built with module support, so the module path is
	// available even when VCS stamping is not.
	if a.Module == "" {
		t.Error("stamp missing the main module path")
	}
}

func TestStringForms(t *testing.T) {
	tests := []struct {
		name  string
		stamp Stamp
		want  []string
	}{
		{
			name:  "zero stamp still renders",
			stamp: Stamp{},
			want:  []string{"unknown module"},
		},
		{
			name:  "revision is truncated and dirty flagged",
			stamp: Stamp{Module: "m", Version: "v1.2.3", GoVersion: "go1.22.0", VCSRevision: "abcdef0123456789", VCSModified: true},
			want:  []string{"m v1.2.3 go1.22.0", "rev abcdef012345", "(modified)"},
		},
		{
			name:  "short revision kept whole",
			stamp: Stamp{Module: "m", VCSRevision: "abc123"},
			want:  []string{"rev abc123"},
		},
	}
	for _, tt := range tests {
		got := tt.stamp.String()
		for _, want := range tt.want {
			if !strings.Contains(got, want) {
				t.Errorf("%s: %q missing %q", tt.name, got, want)
			}
		}
	}
	if s := (Stamp{Module: "m", VCSRevision: "abc"}).String(); strings.Contains(s, "modified") {
		t.Errorf("clean build rendered as modified: %q", s)
	}
}

func TestJSONOmitsEmptyFields(t *testing.T) {
	data, err := json.Marshal(Stamp{GoVersion: "go1.22.0"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"go_version":"go1.22.0"}`; string(data) != want {
		t.Errorf("marshal = %s, want %s", data, want)
	}
}

// Both backends embed JSON() in trace headers and checkpoint files, so the
// bytes must be the encoded Get() and identical on every call.
func TestJSONEncodesGet(t *testing.T) {
	a, b := JSON(), JSON()
	if a == nil {
		t.Fatal("JSON returned nil")
	}
	if string(a) != string(b) {
		t.Fatalf("JSON is not stable across calls: %s vs %s", a, b)
	}
	want, err := json.Marshal(Get())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(want) {
		t.Errorf("JSON = %s, want %s", a, want)
	}
	var back Stamp
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	if back != Get() {
		t.Errorf("JSON decodes to %+v, want %+v", back, Get())
	}
}

func TestCLIVersionMentionsCommand(t *testing.T) {
	if got := CLIVersion("mprs-bench"); !strings.HasPrefix(got, "mprs-bench ") {
		t.Errorf("CLIVersion = %q", got)
	}
}
