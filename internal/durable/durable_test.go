package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func testState() [][]uint64 {
	return [][]uint64{
		{1, 2, 3, 0xdeadbeefcafe},
		{},
		{42},
		{0, ^uint64(0)},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	state := testState()
	var buf bytes.Buffer
	n, err := Encode(&buf, Meta{Round: 7, Fingerprint: "fp"}, state)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	meta, got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if meta.Schema != Schema || meta.Round != 7 || meta.Machines != len(state) || meta.Fingerprint != "fp" {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.StateWords != 7 {
		t.Fatalf("StateWords = %d, want 7", meta.StateWords)
	}
	if len(got) != len(state) {
		t.Fatalf("machines = %d, want %d", len(got), len(state))
	}
	for m := range state {
		if len(got[m]) != len(state[m]) {
			t.Fatalf("machine %d: %d words, want %d", m, len(got[m]), len(state[m]))
		}
		for i := range state[m] {
			if got[m][i] != state[m][i] {
				t.Fatalf("machine %d word %d: %#x != %#x", m, i, got[m][i], state[m][i])
			}
		}
	}
}

func TestEncodeByteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	meta := Meta{Round: 3, Fingerprint: "fp"}
	if _, err := Encode(&a, meta, testState()); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(&b, meta, testState()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of the same checkpoint differ")
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, Meta{Round: 1}, testState()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one bit at every offset class: magic, meta record, state records.
	for _, off := range []int{0, len(magic) + 9, len(good) - 3} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	// Truncation at every prefix length must be ErrCorrupt, never a success
	// or a panic — this is the torn-write case.
	for cut := 0; cut < len(good); cut += 7 {
		if _, _, err := Decode(bytes.NewReader(good[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
	// Trailing garbage after a valid checkpoint is also corruption.
	if _, _, err := Decode(bytes.NewReader(append(append([]byte(nil), good...), 0))); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing byte not detected")
	}
}

// TestReadRecordBoundedAlloc: a torn record whose length prefix claims
// 512 MiB but whose file holds 3 payload bytes fails as ErrCorrupt without
// allocating the claimed size.
func TestReadRecordBoundedAlloc(t *testing.T) {
	rec := binary.LittleEndian.AppendUint32(nil, 512<<20)
	rec = binary.LittleEndian.AppendUint32(rec, 0)
	rec = append(rec, 1, 2, 3)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := readRecord(bytes.NewReader(rec))
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn record: %v, want ErrCorrupt", err)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 8<<20 {
		t.Fatalf("torn record allocated %d bytes, want < 8 MiB", alloc)
	}
}

func TestStorePersistLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	state := testState()
	n, err := s.Persist(4, state)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || s.BytesWritten() != n {
		t.Fatalf("bytes: persist=%d total=%d", n, s.BytesWritten())
	}
	meta, got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Round != 4 || len(got) != len(state) || got[0][3] != state[0][3] {
		t.Fatalf("loaded meta=%+v", meta)
	}

	// A second store on the same dir (a restarted process) resumes cleanly.
	s2, err := Open(dir, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err = s2.LoadLatest()
	if err != nil || meta.Round != 4 {
		t.Fatalf("reopened load: meta=%+v err=%v", meta, err)
	}
}

func TestStoreDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	s, err := Open(dir, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	if _, err := s.Persist(1, testState()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), fileFor(1))); err != nil {
		t.Fatalf("checkpoint not under Dir(): %v", err)
	}
}

// TestStoreBuildStamp checks that a build stamp reaches the meta record of
// every checkpoint persisted after it is set, and none before.
func TestStoreBuildStamp(t *testing.T) {
	s, err := Open(t.TempDir(), "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Persist(1, testState()); err != nil {
		t.Fatal(err)
	}
	stamp := json.RawMessage(`{"version":"v1.2.3"}`)
	s.SetBuildStamp(stamp)
	if _, err := s.Persist(2, testState()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		round int
		want  []byte
	}{{1, nil}, {2, stamp}} {
		meta, _, err := s.loadFile(fileFor(tc.round))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(meta.Build, tc.want) {
			t.Errorf("round %d: meta build %s, want %s", tc.round, meta.Build, tc.want)
		}
	}
}

func TestStoreRetentionGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 5, 9, 13} {
		if _, err := s.Persist(r, testState()); err != nil {
			t.Fatalf("persist %d: %v", r, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	for _, e := range entries {
		if _, ok := roundOf(e.Name()); ok {
			ckpts = append(ckpts, e.Name())
		}
	}
	if len(ckpts) != 2 {
		t.Fatalf("retained %v, want exactly 2 files", ckpts)
	}
	meta, _, err := s.LoadLatest()
	if err != nil || meta.Round != 13 {
		t.Fatalf("latest after gc: meta=%+v err=%v", meta, err)
	}
	man, err := s.readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if man.Schema != ManifestSchema || len(man.Checkpoints) != 2 ||
		man.Checkpoints[0].Round != 9 || man.Checkpoints[1].Round != 13 {
		t.Fatalf("manifest = %+v", man)
	}
}

func TestLoadLatestFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Persist(2, testState()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Persist(6, testState()); err != nil {
		t.Fatal(err)
	}
	// Tear the newest checkpoint (simulating death mid-write after rename —
	// or bit rot); load must fall back to round 2.
	newest := filepath.Join(dir, fileFor(6))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	meta, _, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	if meta.Round != 2 {
		t.Fatalf("fell back to round %d, want 2", meta.Round)
	}
	// Corrupting every checkpoint leaves ErrNoCheckpoint.
	older := filepath.Join(dir, fileFor(2))
	if err := os.WriteFile(older, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt load: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestFingerprintMismatchIsHard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "fp-a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Persist(3, testState()); err != nil {
		t.Fatal(err)
	}
	// Open with a different fingerprint: rejected by the manifest guard.
	if _, err := Open(dir, "fp-b", 3); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("Open with wrong fingerprint: err = %v, want ErrFingerprint", err)
	}
	// Bypass the manifest guard (delete it): LoadLatest must still refuse the
	// intact-but-foreign checkpoint, not skip it like corruption.
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "fp-b", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.LoadLatest(); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("LoadLatest with wrong fingerprint: err = %v, want ErrFingerprint", err)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	s, err := Open(t.TempDir(), "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestRoundOf(t *testing.T) {
	if r, ok := roundOf(fileFor(123)); !ok || r != 123 {
		t.Fatalf("roundOf(fileFor(123)) = %d, %v", r, ok)
	}
	for _, bad := range []string{"MANIFEST.json", "ckpt-12.ckpt.tmp", "ckpt-x.ckpt", "ckpt-.ckpt", "other"} {
		if _, ok := roundOf(bad); ok {
			t.Fatalf("roundOf(%q) accepted", bad)
		}
	}
}
