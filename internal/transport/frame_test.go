package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Worker: 0, Round: 0},
		{Type: FrameMessages, Worker: 2, Round: 41, Payload: []byte("hello frames")},
		{Type: FrameHeartbeat, Worker: 1, Round: 7},
		{Type: FrameResult, Worker: 3, Round: 99, Payload: bytes.Repeat([]byte{0xAB}, 1<<16)},
		{Type: FrameError, Worker: 0, Round: 5, Payload: []byte(`{"message":"x"}`)},
		{Type: FrameStop, Worker: 0, Round: 0},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write %+v: %v", f, err)
		}
	}
	r := NewConn(&buf, io.Discard)
	for i, want := range frames {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Worker != want.Worker || got.Round != want.Round || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameMessages, Worker: 1, Round: 3, Payload: []byte("payload bytes")}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Every single-bit flip anywhere in the frame must surface as ErrFraming
	// (magic mismatch or CRC mismatch), never as silent acceptance.
	for i := range whole {
		for bit := 0; bit < 8; bit++ {
			dam := append([]byte(nil), whole...)
			dam[i] ^= 1 << bit
			c := NewConn(bytes.NewReader(dam), io.Discard)
			f, err := c.Read()
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted: %+v", i, bit, f)
			}
			if !errors.Is(err, ErrFraming) {
				t.Fatalf("bit flip at byte %d bit %d: %v, want ErrFraming", i, bit, err)
			}
		}
	}

	// Every truncation point: a torn frame is ErrFraming, an empty stream is
	// clean EOF.
	for cut := 0; cut < len(whole); cut++ {
		c := NewConn(bytes.NewReader(whole[:cut]), io.Discard)
		_, err := c.Read()
		if cut == 0 {
			if !errors.Is(err, io.EOF) || errors.Is(err, ErrFraming) {
				t.Fatalf("empty stream: %v, want clean io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, ErrFraming) {
			t.Fatalf("truncated at %d/%d: %v, want ErrFraming", cut, len(whole), err)
		}
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{Type: FrameMessages, Worker: 0, Round: 1, Payload: make([]byte, 8)}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	// Forge the payload length far beyond MaxFramePayload, leaving the rest
	// intact: the reader must reject on the declared size before allocating.
	b := buf.Bytes()
	b[17], b[18], b[19], b[20] = 0xFF, 0xFF, 0xFF, 0xFF
	c := NewConn(bytes.NewReader(b), io.Discard)
	if _, err := c.Read(); !errors.Is(err, ErrFraming) {
		t.Fatalf("oversize payload: %v, want ErrFraming", err)
	}
}

// TestReadFrameBoundedAlloc: a torn frame whose header claims 512 MiB but
// whose stream holds 3 payload bytes fails as ErrFraming without allocating
// the claimed size.
func TestReadFrameBoundedAlloc(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameMessages, Worker: 1, Round: 2, Payload: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[17:21], 512<<20)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := ReadFrame(bytes.NewReader(b))
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrFraming) {
		t.Fatalf("torn frame: %v, want ErrFraming", err)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 8<<20 {
		t.Fatalf("torn frame allocated %d bytes, want < 8 MiB", alloc)
	}
}

func TestOwnedRange(t *testing.T) {
	for _, tc := range []struct {
		total, workers int
	}{
		{1, 1}, {8, 1}, {8, 2}, {8, 3}, {9, 3}, {10, 3}, {7, 7}, {100, 16},
	} {
		per := (tc.total + tc.workers - 1) / tc.workers
		next := 0
		for w := 0; w < tc.workers; w++ {
			lo, hi := ownedRange(w, tc.total, tc.workers)
			// Blocks are contiguous, in worker order, and cover every
			// machine exactly once.
			if lo != next || hi < lo {
				t.Fatalf("worker %d owns [%d, %d), want a block from %d (total=%d workers=%d)", w, lo, hi, next, tc.total, tc.workers)
			}
			next = hi
			if hi-lo > per {
				t.Fatalf("worker %d owns %d > %d machines (total=%d workers=%d)", w, hi-lo, per, tc.total, tc.workers)
			}
			// Every worker the supervisor would spawn must own at least
			// one machine whenever workers <= total (the supervisor
			// enforces that).
			if tc.workers <= tc.total && hi == lo {
				t.Fatalf("worker %d owns no machines (total=%d workers=%d)", w, tc.total, tc.workers)
			}
		}
		if next != tc.total {
			t.Fatalf("blocks cover %d of %d machines (workers=%d)", next, tc.total, tc.workers)
		}
	}
}
