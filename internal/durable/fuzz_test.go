package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSeeds are valid encoded checkpoints of assorted shapes, so the fuzzer
// starts from inputs that reach deep into Decode instead of dying at the
// magic check.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, state := range [][][]uint64{
		{},
		{{}},
		{{1, 2, 3}, {4}, {}},
		{{0xFFFFFFFFFFFFFFFF, 0}, {42}},
	} {
		var buf bytes.Buffer
		if _, err := Encode(&buf, Meta{Round: 7, Fingerprint: "fuzz/1 cfg"}, state); err != nil {
			tb.Fatalf("encode seed: %v", err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzDecode feeds arbitrary bytes — seeded with valid checkpoints, which
// the fuzzer then truncates, bit-flips and splices — through Decode. The
// durable reader sits on the crash-recovery path: it must never panic on a
// torn or corrupted file, and anything it does accept must be internally
// consistent, because the Store falls back across checkpoint files on
// ErrCorrupt and the resume path trusts what Decode returns.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		// Hand-built corruptions as extra seeds: truncations at record
		// boundaries and a flipped payload bit.
		if len(seed) > 20 {
			f.Add(seed[:len(seed)-1])
			f.Add(seed[:20])
			flipped := append([]byte(nil), seed...)
			flipped[len(flipped)-3] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(Schema))

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, state, err := Decode(bytes.NewReader(data))
		if err != nil {
			// Every rejection must be the documented sentinel, so the Store's
			// fall-back-to-older-checkpoint logic can classify it.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted checkpoints must be self-consistent.
		if meta.Schema != Schema {
			t.Fatalf("accepted checkpoint with schema %q", meta.Schema)
		}
		if meta.Machines != len(state) {
			t.Fatalf("meta.Machines %d != %d state records", meta.Machines, len(state))
		}
		var words int64
		for _, s := range state {
			words += int64(len(s))
		}
		if words != meta.StateWords {
			t.Fatalf("meta.StateWords %d != %d decoded words", meta.StateWords, words)
		}
		// And a decode-encode-decode roundtrip must be stable.
		var buf bytes.Buffer
		if _, err := Encode(&buf, meta, state); err != nil {
			t.Fatalf("re-encode accepted checkpoint: %v", err)
		}
		meta2, state2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if meta2.Machines != meta.Machines || meta2.StateWords != meta.StateWords || meta2.Round != meta.Round {
			t.Fatalf("roundtrip meta drifted: %+v vs %+v", meta2, meta)
		}
		for m := range state {
			if len(state2[m]) != len(state[m]) {
				t.Fatalf("roundtrip state %d drifted", m)
			}
			for i := range state[m] {
				if state2[m][i] != state[m][i] {
					t.Fatalf("roundtrip word %d/%d drifted", m, i)
				}
			}
		}
	})
}

// FuzzReadManifest feeds arbitrary bytes to the manifest reader as a
// directory's MANIFEST.json. Open reads the manifest of every checkpoint
// directory it is pointed at, so the reader must never panic. A manifest it
// accepts must round-trip: written back by the Store's own writer, it reads
// as the same Manifest.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"schema":"mprs-ckpt-manifest/1","fingerprint":"fuzz/1 cfg","retain":3,"checkpoints":[{"round":8,"file":"ckpt-0000000008.ckpt","bytes":120}]}`))
	f.Add([]byte(`{"schema":"mprs-ckpt-manifest/1","retain":0,"checkpoints":null}`))
	f.Add([]byte(`{"schema":"mprs-ckpt-manifest/0"}`))
	f.Add([]byte(`{"schema":"mprs-ckpt-manifest/1","checkpoints":[{"round":-1}]`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &Store{fsys: OSFS{}, dir: dir}
		man, err := s.readManifest()
		if err != nil {
			return
		}
		s.fingerprint, s.retain, s.entries = man.Fingerprint, man.Retain, man.Checkpoints
		if err := s.writeManifest(); err != nil {
			t.Fatalf("write back accepted manifest: %v", err)
		}
		back, err := s.readManifest()
		if err != nil {
			t.Fatalf("re-read written manifest: %v", err)
		}
		if !reflect.DeepEqual(back, man) {
			t.Fatalf("manifest round trip drifted: %+v vs %+v", back, man)
		}
	})
}

// TestDecodeExhaustiveTruncation runs every truncation point of a valid
// checkpoint through Decode — deterministic coverage of what the fuzzer
// finds probabilistically: truncation must always be ErrCorrupt, never a
// panic or silent short state.
func TestDecodeExhaustiveTruncation(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		for cut := 0; cut < len(seed); cut++ {
			if _, _, err := Decode(bytes.NewReader(seed[:cut])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d/%d: %v, want ErrCorrupt", cut, len(seed), err)
			}
		}
		if _, _, err := Decode(bytes.NewReader(seed)); err != nil {
			t.Fatalf("intact seed rejected: %v", err)
		}
		// Trailing garbage after a complete checkpoint is corruption too.
		if _, _, err := Decode(io.MultiReader(bytes.NewReader(seed), bytes.NewReader([]byte{0}))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing byte accepted: %v", err)
		}
	}
}

// TestDecodeExhaustiveBitFlips flips every bit of a small valid checkpoint:
// each flip must be rejected as ErrCorrupt or (for flips inside the JSON
// meta record that survive the CRC — impossible — or inside ignored JSON
// fields — also CRC-guarded) still decode to a consistent result. With
// CRC-32C over every record and the magic checked byte-for-byte, a single
// bit flip can never be silently accepted.
func TestDecodeExhaustiveBitFlips(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, Meta{Round: 3}, [][]uint64{{1, 2}, {3}}); err != nil {
		t.Fatal(err)
	}
	seed := buf.Bytes()
	for i := range seed {
		for bit := 0; bit < 8; bit++ {
			dam := append([]byte(nil), seed...)
			dam[i] ^= 1 << bit
			if _, _, err := Decode(bytes.NewReader(dam)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit flip at byte %d bit %d accepted: %v", i, bit, err)
			}
		}
	}
}
