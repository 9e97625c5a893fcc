package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"github.com/rulingset/mprs/internal/mpc"
)

// Messages-frame payload: one SHA-256 digest (DigestSize bytes) per machine
// the sending worker owns, in machine order, and nothing else.
//
// Machine s's digest covers its whole outbox in delivery order — ascending
// destination, then box order — with each message fed to the hash as the
// little-endian uint64s (dst, word count, words…). The cluster hands the
// transport boxes already stable-sorted by sender, so two replicas of the
// same superstep produce identical digests; a receiver compares each peer's
// digests with the ones it computed from its own replica.

// DigestSize is the length of one machine's outbox digest.
const DigestSize = sha256.Size

// ErrCodec is wrapped by malformed-payload errors.
var ErrCodec = errors.New("transport: malformed messages payload")

// ErrDiverged is wrapped when an authoritative frame disagrees with the
// local replica — the cross-process determinism check failed.
var ErrDiverged = errors.New("transport: replica divergence")

// digester computes per-machine outbox digests, reusing its hashers and
// buffers across rounds.
type digester struct {
	h    []hash.Hash
	buf  []byte
	sums []byte
}

// digest returns the concatenated digests of every source machine's outbox
// in boxes, DigestSize bytes per machine in machine order. The slice is
// reused by the next call.
func (d *digester) digest(boxes [][]mpc.Message) []byte {
	for len(d.h) < len(boxes) {
		d.h = append(d.h, sha256.New())
	}
	for _, h := range d.h[:len(boxes)] {
		h.Reset()
	}
	for dst, box := range boxes {
		for _, msg := range box {
			b := binary.LittleEndian.AppendUint64(d.buf[:0], uint64(dst))
			b = binary.LittleEndian.AppendUint64(b, uint64(len(msg.Payload)))
			for _, w := range msg.Payload {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
			d.h[msg.Src].Write(b) //nolint:errcheck // hash.Hash.Write never fails
			d.buf = b
		}
	}
	d.sums = d.sums[:0]
	for _, h := range d.h[:len(boxes)] {
		d.sums = h.Sum(d.sums)
	}
	return d.sums
}

// checkDigests compares payload, the digests of machines [lo, hi) from a
// peer's frame, with local, the replica's digests of every machine. A
// payload of the wrong length wraps ErrCodec; the first machine whose
// digests differ wraps ErrDiverged naming that machine.
func checkDigests(local, payload []byte, lo, hi int) error {
	if len(payload) != (hi-lo)*DigestSize {
		return fmt.Errorf("%w: %d bytes, want %d digests of machines %d..%d", ErrCodec, len(payload), hi-lo, lo, hi-1)
	}
	for s := lo; s < hi; s++ {
		if !bytes.Equal(payload[(s-lo)*DigestSize:(s-lo+1)*DigestSize], local[s*DigestSize:(s+1)*DigestSize]) {
			return fmt.Errorf("%w: source machine %d outbox digest differs", ErrDiverged, s)
		}
	}
	return nil
}
