// Package durable persists superstep checkpoints across process death.
//
// PR 1's Pregel-style recovery keeps Checkpointer snapshots in the process
// heap: it survives injected machine crashes, but killing the mprs process
// loses the whole run — exactly the failure the MPC/MapReduce lineage treats
// as the common case. This package is the missing durability layer: a
// schema-versioned on-disk checkpoint format (`mprs-ckpt/1`) carrying the
// per-machine state words, the barrier round they were captured at, a config
// fingerprint and a build stamp, plus a Store that writes checkpoints
// atomically (temp file + fsync + rename + directory sync), maintains a
// manifest with retention/GC, and on load falls back past corrupt or torn
// files to the newest checkpoint that still verifies.
//
// The format is deliberately paranoid about partial writes: every record is
// length-prefixed and CRC-guarded (CRC-32C), so a torn tail, a truncated
// file or a flipped bit is detected as ErrCorrupt rather than silently
// resumed from. A fingerprint mismatch is a different, *hard* error
// (ErrFingerprint): the checkpoint is intact but belongs to a different run
// configuration, and resuming from it would break the bit-identity contract.
//
// Nothing in this package reads the wall clock or draws randomness: file
// names derive from the checkpoint round, and contents are a pure function
// of (state, meta), so checkpoint files themselves are byte-deterministic.
package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Schema is the checkpoint file format version, written as the file magic
// and into Meta.Schema. Version bumps are reserved for changes that break
// existing readers.
const Schema = "mprs-ckpt/1"

// magic is the fixed first line of every checkpoint file.
const magic = Schema + "\n"

// maxRecordBytes bounds one record payload. 1 GiB of state words per
// machine is far beyond any simulated scale.
const maxRecordBytes = 1 << 30

// Sentinel errors. ErrCorrupt (and ErrNoCheckpoint) are recoverable — the
// Store falls back to the previous checkpoint; ErrFingerprint is not.
var (
	// ErrNoCheckpoint means the directory holds no checkpoint that decodes
	// and verifies.
	ErrNoCheckpoint = errors.New("durable: no valid checkpoint")
	// ErrCorrupt wraps CRC mismatches, truncation and torn writes.
	ErrCorrupt = errors.New("durable: corrupt checkpoint")
	// ErrFingerprint means an intact checkpoint was produced by a different
	// run configuration; resuming from it would break bit-identity.
	ErrFingerprint = errors.New("durable: config fingerprint mismatch")
)

// Meta is the self-description record at the head of every checkpoint file.
type Meta struct {
	// Schema is always Schema when written by this package.
	Schema string `json:"schema"`
	// Round is the barrier round the state was captured at: the state is the
	// driver state after round committed supersteps, i.e. the snapshot taken
	// at the barrier before round+1 executes.
	Round int `json:"round"`
	// Machines is the number of per-machine state records that follow.
	Machines int `json:"machines"`
	// Fingerprint is the canonical run-configuration string; resume refuses
	// a checkpoint whose fingerprint differs from the resuming run's.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Build stamps the producing binary (see internal/buildinfo).
	Build json.RawMessage `json:"build,omitempty"`
	// StateWords is the total machine words across all state records, for
	// accounting without decoding the body.
	StateWords int64 `json:"state_words"`
}

// castagnoli is the CRC-32C table (the polynomial hardware CRC instructions
// implement; conventional for storage checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeRecord writes one length-prefixed, CRC-guarded record.
func writeRecord(w io.Writer, payload []byte) (int64, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(len(hdr)) + int64(len(payload)), nil
}

// readRecord reads one record, verifying length sanity and CRC. Truncation
// and checksum failures both surface as ErrCorrupt.
func readRecord(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated record header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxRecordBytes {
		return nil, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, n)
	}
	payload, err := readN(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("%w: truncated record payload: %v", ErrCorrupt, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: record CRC mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// readStep bounds each allocation readN makes ahead of the bytes it has read.
const readStep = 1 << 20

// readN reads exactly n bytes, growing the buffer at most readStep bytes
// ahead of what has arrived: a torn record whose length prefix claims far
// more than the file holds costs only the bytes actually present.
func readN(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readStep))
	for len(buf) < n {
		step := min(n-len(buf), readStep)
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+step]
	}
	return buf, nil
}

// Encode writes one checkpoint: magic, a meta record, then one state record
// per machine (little-endian words). meta.Schema, meta.Machines and
// meta.StateWords are filled in from the arguments. Returns the encoded
// byte count.
func Encode(w io.Writer, meta Meta, state [][]uint64) (int64, error) {
	meta.Schema = Schema
	meta.Machines = len(state)
	meta.StateWords = 0
	for _, words := range state {
		meta.StateWords += int64(len(words))
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	if _, err := io.WriteString(w, magic); err != nil {
		return 0, err
	}
	total += int64(len(magic))
	n, err := writeRecord(w, metaJSON)
	if err != nil {
		return 0, err
	}
	total += n
	buf := make([]byte, 0, 8*1024)
	for _, words := range state {
		buf = buf[:0]
		for _, v := range words {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		n, err := writeRecord(w, buf)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Decode reads and verifies one checkpoint. Corruption anywhere — bad magic,
// truncated or CRC-failing records, trailing garbage, a record/meta
// disagreement — returns an error wrapping ErrCorrupt so callers can fall
// back to an older checkpoint.
func Decode(r io.Reader) (Meta, [][]uint64, error) {
	var meta Meta
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return meta, nil, fmt.Errorf("%w: truncated magic: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(head, []byte(magic)) {
		return meta, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head)
	}
	metaJSON, err := readRecord(r)
	if err != nil {
		return meta, nil, err
	}
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return meta, nil, fmt.Errorf("%w: bad meta record: %v", ErrCorrupt, err)
	}
	if meta.Schema != Schema {
		return meta, nil, fmt.Errorf("%w: unsupported schema %q", ErrCorrupt, meta.Schema)
	}
	if meta.Machines < 0 || meta.Machines > maxRecordBytes/8 {
		return meta, nil, fmt.Errorf("%w: implausible machine count %d", ErrCorrupt, meta.Machines)
	}
	state := make([][]uint64, meta.Machines)
	var totalWords int64
	for m := range state {
		payload, err := readRecord(r)
		if err != nil {
			return meta, nil, err
		}
		if len(payload)%8 != 0 {
			return meta, nil, fmt.Errorf("%w: state record %d length %d not word-aligned", ErrCorrupt, m, len(payload))
		}
		words := make([]uint64, len(payload)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		state[m] = words
		totalWords += int64(len(words))
	}
	if totalWords != meta.StateWords {
		return meta, nil, fmt.Errorf("%w: state words %d disagree with meta %d", ErrCorrupt, totalWords, meta.StateWords)
	}
	// A valid checkpoint ends exactly after the last record; trailing bytes
	// mean the file was not produced by a completed Encode.
	var tail [1]byte
	if _, err := r.Read(tail[:]); err != io.EOF {
		return meta, nil, fmt.Errorf("%w: trailing bytes after final record", ErrCorrupt)
	}
	return meta, state, nil
}
