package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/rulingset/mprs/internal/mpc"
)

// testBoxes builds a deterministic per-destination message layout over total
// machines, the same on every "worker" — the replicated-execution invariant.
// Even sources send a second, one-word message wherever they send at all, so
// some boxes hold two messages from one source.
func testBoxes(total, round int) [][]mpc.Message {
	boxes := make([][]mpc.Message, total)
	for dst := 0; dst < total; dst++ {
		for src := 0; src < total; src++ {
			if (src+dst+round)%3 != 0 {
				continue
			}
			boxes[dst] = append(boxes[dst], mpc.Message{
				Src:     src,
				Payload: []uint64{uint64(round), uint64(src)<<32 | uint64(dst)},
			})
			if src%2 == 0 {
				boxes[dst] = append(boxes[dst], mpc.Message{Src: src, Payload: []uint64{uint64(dst) + 100}})
			}
		}
	}
	return boxes
}

// digestsOf digests boxes with a fresh digester, copying the result out.
func digestsOf(boxes [][]mpc.Message) []byte {
	var d digester
	return append([]byte(nil), d.digest(boxes)...)
}

// TestDigestEncoding pins the digested byte stream: a machine's messages in
// destination order, each as little-endian (dst, word count, words…), and
// the empty stream for a machine that sends nothing.
func TestDigestEncoding(t *testing.T) {
	boxes := [][]mpc.Message{
		{{Src: 1, Payload: []uint64{7, 8}}},
		{},
		{{Src: 0, Payload: []uint64{9}}, {Src: 1, Payload: nil}},
	}
	le := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	got := digestsOf(boxes)
	if len(got) != 3*DigestSize {
		t.Fatalf("%d digest bytes, want %d", len(got), 3*DigestSize)
	}
	for m, stream := range [][]byte{le(2, 1, 9), le(0, 2, 7, 8, 2, 0), nil} {
		want := sha256.Sum256(stream)
		if !bytes.Equal(got[m*DigestSize:(m+1)*DigestSize], want[:]) {
			t.Errorf("machine %d: digest %x, want %x", m, got[m*DigestSize:(m+1)*DigestSize], want)
		}
	}
}

// TestDigestReplicasAgree: replicas of the same boxes digest identically, a
// reused digester matches a fresh one across rounds of different shapes, and
// every worker's own block checks clean against the local digests.
func TestDigestReplicasAgree(t *testing.T) {
	const workers = 3
	var reused digester
	for _, total := range []int{10, 4, 7} {
		for round := 1; round <= 3; round++ {
			want := digestsOf(testBoxes(total, round))
			got := reused.digest(testBoxes(total, round))
			if !bytes.Equal(got, want) {
				t.Fatalf("total %d round %d: reused digester differs from a fresh one", total, round)
			}
			for w := 0; w < workers; w++ {
				lo, hi := ownedRange(w, total, workers)
				if err := checkDigests(want, got[lo*DigestSize:hi*DigestSize], lo, hi); err != nil {
					t.Fatalf("total %d round %d worker %d: %v", total, round, w, err)
				}
			}
		}
	}
}

// firstFrom returns the position of the first message from src.
func firstFrom(t *testing.T, boxes [][]mpc.Message, src int) (dst, i int) {
	t.Helper()
	for dst, box := range boxes {
		for i, msg := range box {
			if msg.Src == src {
				return dst, i
			}
		}
	}
	t.Fatalf("no message from machine %d", src)
	return 0, 0
}

// lastFrom returns the position of the last message from src.
func lastFrom(t *testing.T, boxes [][]mpc.Message, src int) (dst, i int) {
	t.Helper()
	for dst := len(boxes) - 1; dst >= 0; dst-- {
		for i := len(boxes[dst]) - 1; i >= 0; i-- {
			if boxes[dst][i].Src == src {
				return dst, i
			}
		}
	}
	t.Fatalf("no message from machine %d", src)
	return 0, 0
}

func remove(box []mpc.Message, i int) []mpc.Message {
	return append(box[:i:i], box[i+1:]...)
}

func insert(box []mpc.Message, i int, msgs ...mpc.Message) []mpc.Message {
	return append(box[:i:i], append(msgs, box[i:]...)...)
}

// TestDigestMutations: every way one machine's outbox can differ between
// replicas changes that machine's digest, and no other machine's.
func TestDigestMutations(t *testing.T) {
	const total, round, src = 8, 2, 4
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, boxes [][]mpc.Message)
	}{
		{"flipped word", func(t *testing.T, boxes [][]mpc.Message) {
			dst, i := firstFrom(t, boxes, src)
			boxes[dst][i].Payload[1] ^= 1
		}},
		{"moved to another destination", func(t *testing.T, boxes [][]mpc.Message) {
			// The last message from src moves to the last box, which holds
			// none from src: only the destination in the stream changes.
			dst, i := lastFrom(t, boxes, src)
			if dst == total-1 {
				t.Fatalf("machine %d already sends to the last box", src)
			}
			msg := boxes[dst][i]
			boxes[dst] = remove(boxes[dst], i)
			boxes[total-1] = append(boxes[total-1], msg)
		}},
		{"payload split in two", func(t *testing.T, boxes [][]mpc.Message) {
			dst, i := firstFrom(t, boxes, src)
			p := boxes[dst][i].Payload
			boxes[dst] = insert(remove(boxes[dst], i), i,
				mpc.Message{Src: src, Payload: p[:1]}, mpc.Message{Src: src, Payload: p[1:]})
		}},
		{"two messages reordered", func(t *testing.T, boxes [][]mpc.Message) {
			dst, i := firstFrom(t, boxes, src)
			if boxes[dst][i+1].Src != src {
				t.Fatalf("box %d holds one message from machine %d", dst, src)
			}
			boxes[dst][i], boxes[dst][i+1] = boxes[dst][i+1], boxes[dst][i]
		}},
		{"dropped message", func(t *testing.T, boxes [][]mpc.Message) {
			dst, i := firstFrom(t, boxes, src)
			boxes[dst] = remove(boxes[dst], i)
		}},
		{"added empty message", func(t *testing.T, boxes [][]mpc.Message) {
			dst, i := firstFrom(t, boxes, src)
			boxes[dst] = insert(boxes[dst], i, mpc.Message{Src: src})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := digestsOf(testBoxes(total, round))
			boxes := testBoxes(total, round)
			tc.mutate(t, boxes)
			got := digestsOf(boxes)
			for m := 0; m < total; m++ {
				same := bytes.Equal(got[m*DigestSize:(m+1)*DigestSize], want[m*DigestSize:(m+1)*DigestSize])
				if same != (m != src) {
					t.Errorf("machine %d: digest unchanged = %v, want %v", m, same, m != src)
				}
			}
			if err := checkDigests(want, got[src*DigestSize:(src+1)*DigestSize], src, src+1); !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "source machine 4") {
				t.Fatalf("check: %v, want ErrDiverged naming source machine %d", err, src)
			}
		})
	}
}

// TestCheckDigestsRejectsMalformedPayload: a digest payload of any length
// but 32 bytes per owned machine is malformed, never a partial comparison.
func TestCheckDigestsRejectsMalformedPayload(t *testing.T) {
	const total, lo, hi = 6, 3, 6
	local := digestsOf(testBoxes(total, 3))
	own := local[lo*DigestSize : hi*DigestSize]
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"one byte short", own[:len(own)-1]},
		{"one digest short", own[:len(own)-DigestSize]},
		{"one byte over", append(append([]byte(nil), own...), 0)},
		{"one digest over", append(append([]byte(nil), own...), own[:DigestSize]...)},
	} {
		if err := checkDigests(local, tc.payload, lo, hi); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: %v, want ErrCodec", tc.name, err)
		}
	}
	if err := checkDigests(local, own, lo, hi); err != nil {
		t.Fatalf("exact payload: %v", err)
	}
}

// bufPipe is an unbounded in-memory byte pipe: writes never block, reads
// block until data arrives. Both workers in the crossed-pipe tests write
// their frame before reading the peer's; a synchronous io.Pipe would
// deadlock there (the supervisor's buffered writer queues play this role in
// production).
type bufPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
}

func newBufPipe() *bufPipe {
	p := &bufPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *bufPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *bufPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 {
		p.cond.Wait()
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

// TestWorkerExchange runs two Workers over crossed pipes — each one's writes
// are the other's reads, no hub — and checks a multi-round exchange of
// agreeing replicas succeeds and leaves the local boxes unchanged.
func TestWorkerExchange(t *testing.T) {
	const total = 5
	p01 := newBufPipe() // worker 0 -> worker 1
	p10 := newBufPipe() // worker 1 -> worker 0
	w0, err := NewWorker(NewConn(p10, p01), 0, 2, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorker(NewConn(p01, p10), 1, 2, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, wk := range []*Worker{w0, w1} {
		wg.Add(1)
		go func(wk *Worker) {
			defer wg.Done()
			for round := 1; round <= 4; round++ {
				boxes := testBoxes(total, round)
				if err := wk.Exchange(round, boxes); err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
				if !reflect.DeepEqual(boxes, testBoxes(total, round)) {
					t.Errorf("round %d: exchange modified the boxes", round)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
}

// TestWorkerExchangeDiverged crosses two workers whose round-3 replicas
// differ by one word in a message from a machine worker 1 owns. Worker 0
// must refuse the round with ErrDiverged naming the round and that source
// machine; worker 1 sees worker 0's machines agree.
func TestWorkerExchangeDiverged(t *testing.T) {
	const total, round = 4, 3
	p01 := newBufPipe()
	p10 := newBufPipe()
	w0, err := NewWorker(NewConn(p10, p01), 0, 2, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorker(NewConn(p01, p10), 1, 2, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := ownedRange(1, total, 2)
	mutated := testBoxes(total, round)
	dst, i := firstFrom(t, mutated, lo)
	mutated[dst][i].Payload[0] ^= 1

	var err0, err1 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); err0 = w0.Exchange(round, testBoxes(total, round)) }()
	go func() { defer wg.Done(); err1 = w1.Exchange(round, mutated) }()
	wg.Wait()
	if !errors.Is(err0, ErrDiverged) {
		t.Fatalf("worker 0: %v, want ErrDiverged", err0)
	}
	for _, want := range []string{fmt.Sprintf("round %d", round), fmt.Sprintf("source machine %d", lo), "peer 1"} {
		if !strings.Contains(err0.Error(), want) {
			t.Errorf("worker 0 error %q does not name %q", err0, want)
		}
	}
	if err1 != nil {
		t.Fatalf("worker 1: %v", err1)
	}
}

// TestWorkerJoinAfter: rounds at or below the join round never touch the
// wire — a restarted worker replays them locally.
func TestWorkerJoinAfter(t *testing.T) {
	blocked := &blockingWriter{}
	wk, err := NewWorker(NewConn(failReader{}, blocked), 1, 3, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 5; round++ {
		if err := wk.Exchange(round, testBoxes(9, round)); err != nil {
			t.Fatalf("replayed round %d: %v", round, err)
		}
	}
	if blocked.writes != 0 {
		t.Fatalf("replayed rounds wrote %d frames to the wire", blocked.writes)
	}
}

type blockingWriter struct{ writes int }

func (b *blockingWriter) Write(p []byte) (int, error) { b.writes++; return len(p), nil }

type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
