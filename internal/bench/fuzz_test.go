package bench

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes, seeded with encoded artifacts and the
// checked-in baseline, through Decode, which mprs-bench diff runs on files
// from disk: it must reject malformed input with an error, never a panic.
// An artifact it accepts re-encodes stably: encoding it and decoding the
// bytes gives the same artifact, which encodes to the same bytes again, and
// when its row keys are unique it diffs clean against that copy.
func FuzzDecode(f *testing.F) {
	small := &File{
		Manifest: Manifest{Schema: Schema, Quick: true, Seed: 1, Workloads: []string{"t2-star"}},
		Results: []Result{
			{Workload: "t2-star", Experiment: "T2", Algo: "det2", Model: "mpc", Machines: 8, N: 64, M: 63, Members: 1, Beta: 2, Rounds: 9, Words: 300, SkewSent: 1.5, GiniSent: 0.25},
			{Workload: "t2-star", Algo: "cliquedet2", Model: "clique", RecoveredCrashes: 1, CheckpointBytes: 4096},
		},
	}
	var b bytes.Buffer
	if err := small.Encode(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	if baseline, err := os.ReadFile("../../BENCH_baseline.json"); err == nil {
		f.Add(baseline)
	}
	f.Add([]byte(`{"manifest":{"schema":"mprs-bench/1"},"results":null}`))
	f.Add([]byte(`{"manifest":{"schema":"mprs-bench/1"},"results":[{"gini_sent":-0,"words":1e3}]} trailing`))
	f.Add([]byte(`{"manifest":{"schema":"mprs-bench/2"}}`))
	f.Add([]byte(`{"manifest":{"schema":"mprs-bench/1","seed":1e99}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := file.Encode(&once); err != nil {
			t.Fatalf("an accepted artifact does not encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("Decode rejects its own encoding %q: %v", once.Bytes(), err)
		}
		if !reflect.DeepEqual(again, file) {
			t.Fatalf("round trip changed the artifact:\n%+v\nbecame\n%+v", file, again)
		}
		var twice bytes.Buffer
		if err := again.Encode(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding changed the bytes:\n%s\nbecame\n%s", once.Bytes(), twice.Bytes())
		}
		keys := make(map[string]bool, len(file.Results))
		for _, r := range file.Results {
			keys[r.Key()] = true
		}
		if deltas := Diff(file, again); len(keys) == len(file.Results) && len(deltas) != 0 {
			t.Fatalf("an artifact diffs against its own round trip: %v", deltas)
		}
	})
}
