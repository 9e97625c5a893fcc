// Package transport implements the multi-process message exchange behind the
// mpc.Transport interface: workers running replicated deterministic
// simulations check each superstep's message boxes against each other with
// length-prefixed, CRC-framed records over byte pipes, each worker
// authoritative for the machines it owns.
//
// The execution model is SPMD replication. Every worker process runs the
// full deterministic driver (the driver programming model holds global state
// that per-machine step closures fill in, so machine-partitioned computation
// is impossible without rewriting every algorithm), so every worker already
// holds every box. What the wire adds is physical fault isolation and
// cross-process verification: at every committed superstep each worker ships
// one SHA-256 digest per owned machine of that machine's canonical outbox,
// and every receiver compares them with the digests of its own replica
// before delivering its local boxes. The check is collision-resistant rather
// than word for word; the supervisor's end-of-job comparison of the workers'
// results stays exact. A diverged worker — cosmic ray, bad memory,
// heterogeneous build — is detected at the very barrier where it diverged
// instead of corrupting the output silently, and a crashed worker is a real
// OS process the supervisor can kill and restart (see internal/supervise).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// Frame types. Workers send Hello once after start, Messages at every
// exchanged superstep, Heartbeat on a wall-clock ticker, and exactly one of
// Result or Error before exiting. The supervisor relays Messages frames
// between workers and sends Stop to ask a worker to abort at its next
// barrier.
const (
	FrameHello byte = iota + 1
	FrameMessages
	FrameHeartbeat
	FrameResult
	FrameError
	FrameStop
)

// Frame is one wire record.
type Frame struct {
	// Type is one of the Frame* constants.
	Type byte
	// Worker identifies the origin worker (or the target, for Stop).
	Worker int
	// Round is the model round the frame belongs to: the exchanged round
	// for Messages, the latest round entered for Heartbeat, the join round
	// for Hello.
	Round int
	// Payload is the type-specific body.
	Payload []byte
}

// frameMagic leads every frame; a reader that sees anything else is looking
// at a torn or corrupt stream and must treat the connection as dead.
var frameMagic = [4]byte{'M', 'P', 'R', 'W'}

// headerLen is magic(4) + type(1) + worker(4) + round(8) + paylen(4) + crc(4).
const headerLen = 25

// MaxFramePayload bounds one frame body.
const MaxFramePayload = 1 << 30

// castagnoli is the CRC-32C table, matching internal/durable's framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFraming is wrapped by every malformed-stream error: bad magic, bad
// checksum, oversized payload, torn header.
var ErrFraming = errors.New("transport: malformed frame")

// appendHeader renders the frame header with the CRC over the 17 bytes
// following the magic plus the payload.
func appendHeader(b []byte, f Frame) []byte {
	b = append(b, frameMagic[:]...)
	b = append(b, f.Type)
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Worker))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Round))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Payload)))
	crc := crc32.Update(0, castagnoli, b[len(b)-17:])
	crc = crc32.Update(crc, castagnoli, f.Payload)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// WriteFrame writes one frame. The header and payload go out in a single
// Write call so a frame is never interleaved with another writer's bytes as
// long as callers serialize on the same Conn.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return fmt.Errorf("%w: payload %d bytes exceeds %d", ErrFraming, len(f.Payload), MaxFramePayload)
	}
	buf := make([]byte, 0, headerLen+len(f.Payload))
	buf = appendHeader(buf, f)
	buf = append(buf, f.Payload...)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame, verifying magic and checksum. io.EOF is
// returned untranslated when the stream ends cleanly between frames; any
// mid-frame truncation or corruption wraps ErrFraming.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: %v", ErrFraming, err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Frame{}, fmt.Errorf("%w: torn header: %v", ErrFraming, err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrFraming, hdr[:4])
	}
	f := Frame{
		Type:   hdr[4],
		Worker: int(int32(binary.LittleEndian.Uint32(hdr[5:9]))),
		Round:  int(int64(binary.LittleEndian.Uint64(hdr[9:17]))),
	}
	paylen := binary.LittleEndian.Uint32(hdr[17:21])
	wantCRC := binary.LittleEndian.Uint32(hdr[21:25])
	if paylen > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: payload %d bytes exceeds %d", ErrFraming, paylen, MaxFramePayload)
	}
	payload, err := readN(r, int(paylen))
	if err != nil {
		return Frame{}, fmt.Errorf("%w: torn payload: %v", ErrFraming, err)
	}
	f.Payload = payload
	crc := crc32.Update(0, castagnoli, hdr[4:21])
	crc = crc32.Update(crc, castagnoli, f.Payload)
	if crc != wantCRC {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrFraming)
	}
	return f, nil
}

// readStep bounds each allocation readN makes ahead of the bytes it has read.
const readStep = 1 << 20

// readN reads exactly n bytes, growing the buffer at most readStep bytes
// ahead of what has arrived: a torn frame whose length field claims far
// more than the stream holds costs only the bytes actually present.
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

// Conn is one worker's frame connection: a buffered single-goroutine reader
// plus a mutex-serialized writer, so the heartbeat ticker and the exchange
// path can share the outbound pipe without interleaving frames.
type Conn struct {
	r *bufio.Reader

	mu sync.Mutex
	w  io.Writer
}

// NewConn wraps a read/write byte-stream pair (typically the worker's stdin
// and stdout, or the supervisor's ends of the same pipes).
func NewConn(r io.Reader, w io.Writer) *Conn {
	return &Conn{r: bufio.NewReaderSize(r, 1<<16), w: w}
}

// Write sends one frame, serialized against concurrent writers.
func (c *Conn) Write(f Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return WriteFrame(c.w, f)
}

// Read receives the next frame. Only one goroutine may read.
func (c *Conn) Read() (Frame, error) {
	return ReadFrame(c.r)
}
