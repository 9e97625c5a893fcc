// Package buildinfo stamps artifacts with the provenance of the binary that
// produced them: module version, VCS revision and go toolchain, read from
// debug.ReadBuildInfo. The stamp is embedded in trace JSONL headers and
// bench JSON manifests, and printed by the -version flag of every CLI, so a
// BENCH_*.json or trace file can always be traced back to the commit that
// generated it.
//
// The stamp is a pure function of the binary (not of the run), so embedding
// it in otherwise bit-deterministic artifacts preserves the byte-identical
// guarantee across runs of the same build.
package buildinfo

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Stamp identifies the build that produced an artifact.
type Stamp struct {
	// Module is the main module path (e.g. github.com/rulingset/mprs).
	Module string `json:"module,omitempty"`
	// Version is the main module version ("(devel)" for source builds).
	Version string `json:"version,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version,omitempty"`
	// VCSRevision is the full VCS commit hash, when stamped by the go tool.
	VCSRevision string `json:"vcs_revision,omitempty"`
	// VCSTime is the commit timestamp (RFC 3339), when stamped.
	VCSTime string `json:"vcs_time,omitempty"`
	// VCSModified reports uncommitted local changes at build time.
	VCSModified bool `json:"vcs_modified,omitempty"`
}

// Get returns the stamp of the running binary. Binaries built without module
// support (or test binaries on older toolchains) yield a stamp with only the
// toolchain version filled in.
func Get() Stamp {
	s := Stamp{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return s
	}
	s.Module = bi.Main.Path
	s.Version = bi.Main.Version
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			s.VCSRevision = kv.Value
		case "vcs.time":
			s.VCSTime = kv.Value
		case "vcs.modified":
			s.VCSModified = kv.Value == "true"
		}
	}
	return s
}

// JSON renders the running binary's stamp for trace headers and checkpoint
// files. Both backends embed these bytes, so replicated workers of one build
// stamp identical headers; nil only if encoding fails.
func JSON() json.RawMessage {
	data, err := json.Marshal(Get())
	if err != nil {
		return nil
	}
	return data
}

// String renders the stamp on one line, the form the -version flags print:
//
//	github.com/rulingset/mprs (devel) go1.22.0 rev 0f5fa46… (modified)
func (s Stamp) String() string {
	out := s.Module
	if out == "" {
		out = "unknown module"
	}
	if s.Version != "" {
		out += " " + s.Version
	}
	if s.GoVersion != "" {
		out += " " + s.GoVersion
	}
	if s.VCSRevision != "" {
		rev := s.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		out += " rev " + rev
		if s.VCSModified {
			out += " (modified)"
		}
	}
	return out
}

// CLIVersion formats the standard -version output of a named command.
func CLIVersion(cmd string) string {
	return fmt.Sprintf("%s %s", cmd, Get())
}
