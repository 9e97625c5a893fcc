package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes — seeded with valid frames of every
// type, which the fuzzer then truncates, bit-flips and splices — through the
// wire decoders: ReadFrame, DecodeHeartbeat and the digest-payload check.
// The supervisor and every worker run these on bytes from another process,
// so they must never panic, must reject with their documented sentinels,
// and a frame ReadFrame accepts must re-encode to exactly the bytes read.
func FuzzReadFrame(f *testing.F) {
	const total, workers = 6, 3
	local := digestsOf(testBoxes(total, 1))
	hb, err := EncodeHeartbeat(Heartbeat{Telemetry: json.RawMessage(`{"schema":"mprs-telemetry/1"}`)})
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range []Frame{
		{Type: FrameHello, Worker: 0, Round: 0},
		peerFrame(1, total, workers, 1),
		{Type: FrameHeartbeat, Worker: 2, Round: 7},
		{Type: FrameHeartbeat, Worker: 2, Round: 8, Payload: hb},
		{Type: FrameResult, Worker: 0, Round: 9, Payload: []byte(`{"members":[1,2]}`)},
		{Type: FrameError, Worker: 1, Round: 3, Payload: []byte(`{"message":"x"}`)},
		{Type: FrameStop, Worker: 2, Round: 0},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
	}
	f.Add([]byte{})
	f.Add(frameMagic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeHeartbeat(data); err != nil && !errors.Is(err, ErrCodec) {
			t.Fatalf("DecodeHeartbeat error is not ErrCodec: %v", err)
		}
		checkPayload(t, local, data, total, workers)

		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			// A stream that ends before any byte is a clean io.EOF.
			if !errors.Is(err, ErrFraming) && !(len(data) == 0 && err == io.EOF) {
				t.Fatalf("ReadFrame error is not ErrFraming: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, fr); err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		if n := again.Len(); n > len(data) || !bytes.Equal(again.Bytes(), data[:n]) {
			t.Fatalf("accepted frame re-encodes to %x, read %x", again.Bytes(), data)
		}
		if _, err := DecodeHeartbeat(fr.Payload); err != nil && !errors.Is(err, ErrCodec) {
			t.Fatalf("DecodeHeartbeat error is not ErrCodec: %v", err)
		}
		checkPayload(t, local, fr.Payload, total, workers)
	})
}

// checkPayload runs payload through checkDigests as every worker's frame:
// exactly the payloads of the wrong length are ErrCodec, and a well-sized
// one is either accepted or ErrDiverged.
func checkPayload(t *testing.T, local, payload []byte, total, workers int) {
	t.Helper()
	for p := 0; p < workers; p++ {
		lo, hi := ownedRange(p, total, workers)
		err := checkDigests(local, payload, lo, hi)
		if wrongLen := len(payload) != (hi-lo)*DigestSize; wrongLen != errors.Is(err, ErrCodec) {
			t.Fatalf("worker %d, %d-byte payload: %v", p, len(payload), err)
		}
		if err != nil && !errors.Is(err, ErrCodec) && !errors.Is(err, ErrDiverged) {
			t.Fatalf("worker %d: unexpected error %v", p, err)
		}
	}
}
