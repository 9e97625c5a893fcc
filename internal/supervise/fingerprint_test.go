package supervise

import (
	"errors"
	"reflect"
	"testing"

	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/rulingset"
)

// TestFingerprintHoldsOnlyWhatTheDriverReads walks every entry of
// rulingset.Algorithms and changes, one at a time, the three parameters an
// entry declares it reads or not: beta (Algorithm.Beta), the chunk width
// (Deterministic) and the algorithm seed (not Deterministic). Changing a
// declared one changes the fingerprint. Changing an undeclared one leaves
// the fingerprint, the members and the canonical Stats as they were, which
// is what makes the declarations true of the drivers.
func TestFingerprintHoldsOnlyWhatTheDriverReads(t *testing.T) {
	for _, a := range rulingset.Algorithms {
		t.Run(a.Name, func(t *testing.T) {
			base := JobSpec{Algo: a.Name, Beta: 3, GraphSpec: "gnp:n=256,p=0.03", GenSeed: 1,
				Machines: 8, ChunkBits: 4, AlgoSeed: 1}
			g, err := base.BuildGraph()
			if err != nil {
				t.Fatal(err)
			}
			want, err := InProc{}.Run(base, g)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []struct {
				name     string
				declared bool
				change   func(*JobSpec)
			}{
				{"beta", a.Beta, func(s *JobSpec) { s.Beta = 4 }},
				{"chunk", a.Deterministic, func(s *JobSpec) { s.ChunkBits = 5 }},
				{"algo-seed", !a.Deterministic, func(s *JobSpec) { s.AlgoSeed = 2 }},
			} {
				spec := base
				p.change(&spec)
				if same := spec.Fingerprint() == base.Fingerprint(); same == p.declared {
					t.Errorf("%s: fingerprint unchanged = %t, want %t: %q", p.name, same, !p.declared, spec.Fingerprint())
				}
				if p.declared {
					continue
				}
				got, err := InProc{}.Run(spec, g)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Members, want.Members) || !reflect.DeepEqual(got.Stats.Canonical(), want.Stats.Canonical()) {
					t.Errorf("%s is not declared, yet changing it changed the run", p.name)
				}
			}
		})
	}
}

// TestResumeRefusesOldFingerprint: a checkpoint directory stamped before the
// fingerprint schema became mprs-job/2 is refused with the mismatch error.
func TestResumeRefusesOldFingerprint(t *testing.T) {
	spec := testSpec(t, "det2")
	spec.CheckpointEvery, spec.CheckpointDir = 4, t.TempDir()
	st, err := durable.Open(spec.CheckpointDir, "mprs-run/1 algo=det2 beta=3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Persist(4, [][]uint64{{1}}); err != nil {
		t.Fatal(err)
	}
	g, err := spec.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (InProc{Resume: true}).Run(spec, g); !errors.Is(err, durable.ErrFingerprint) {
		t.Fatalf("old checkpoint: err = %v, want durable.ErrFingerprint", err)
	}
}
