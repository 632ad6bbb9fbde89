// Package wire exposes the in-process broker over TCP with a compact
// length-prefixed binary protocol, in the role AMQP's wire level plays
// for RabbitMQ: cmd/brokerd serves a broker.Broker, and Client
// implements broker.Client against a remote brokerd, so the router and
// joiner services run unchanged as separate OS processes or containers.
//
// Framing: every frame is a 4-byte big-endian payload length followed by
// the payload; the first payload byte is the opcode. Strings and byte
// slices are uvarint-length-prefixed. Requests carry a client-assigned
// correlation id echoed by the matching reply. Deliveries are
// server-initiated frames carrying the server-side consumer id.
//
// Socket I/O is batched on both ends: readers go through a buffered
// reader, and frames queued by concurrent senders while a write is in
// flight leave together in the next write (see frameWriter), so a
// burst costs one syscall instead of one or two per frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"bistream/internal/broker"
)

// Opcodes. Client→server requests are even-numbered conceptually; the
// numbering only needs to be stable, not meaningful.
const (
	opDeclareExchange byte = iota + 1
	opDeclareQueue
	opDeleteQueue
	opBind
	opPublish
	opConsume
	opAck
	opNack
	opCancel
	opQueueStats

	opReply      // generic ok/error reply: reqID, errString
	opConsumeOK  // reqID, consumerID
	opStatsReply // reqID, errString, stats
	opDeliver    // consumerID, delivery
	opConsumerEOF

	// opPing is a liveness probe: the server echoes an empty opReply.
	// The client's heartbeat uses it to detect half-open TCP connections
	// that deliver neither frames nor errors. Appended last so earlier
	// opcode values stay stable.
	opPing

	// opAckBatch settles several deliveries of one consumer in a single
	// round trip: consumerID, uint64 count, then count uint64 tags. The
	// reply is an opReply carrying the first error, after every known
	// tag has been settled.
	opAckBatch
)

// maxFrame bounds a single frame; tuples are small, so anything larger
// indicates a corrupt stream.
const maxFrame = 16 << 20

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// readFrame reads one length-prefixed frame into a fresh buffer.
func readFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto reads one length-prefixed frame, reusing buf when it is
// large enough. The returned slice aliases buf, so it is only valid
// until the next call; decoders copy every field they keep.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadFrame reads one length-prefixed frame. Exported for sibling
// protocols built on the same framing (the broker replication stream).
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r) }

// ReadFrameInto is ReadFrame reusing buf when it is large enough; the
// result aliases buf and is valid until the next call.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) { return readFrameInto(r, buf) }

// WriteFrame writes one frame; the caller must serialize writes.
// Exported for sibling protocols built on the same framing.
func WriteFrame(w io.Writer, payload []byte) error { return writeFrame(w, payload) }

// StartFrame reserves a frame header at the end of dst; append the
// payload, then seal it with EndFrame. Frames built this way can be
// batched into one buffer and sent with a single write.
func StartFrame(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

// EndFrame patches the header reserved by StartFrame at start with the
// length of the payload appended since.
func EndFrame(dst []byte, start int) error {
	n := len(dst) - start - 4
	if n > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return nil
}

// appendFrame appends payload to dst as one complete frame.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > maxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// writeFrame writes one frame with a single Write call, header and
// payload together. The caller must serialize writes.
func writeFrame(w io.Writer, payload []byte) error {
	buf, err := appendFrame(make([]byte, 0, 4+len(payload)), payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// maxRetainedBuf caps the write buffers kept for reuse between bursts;
// a rare oversized burst gets a buffer that is then dropped rather than
// pinned for the life of the connection.
const maxRetainedBuf = 64 << 10

// maxPendingWrite bounds how many bytes senders may queue behind an
// in-flight write before they block, so a stalled peer still
// backpressures producers the way a blocking write did.
const maxPendingWrite = 1 << 20

// frameWriter serializes frames from concurrent senders onto one
// connection and coalesces them: a sender appends its frame to the
// pending buffer and, if no write is in flight, becomes the flusher and
// writes everything pending — including frames other senders append
// meanwhile — until the buffer is empty. Nothing waits on a timer: a
// lone sender's frame leaves immediately. A write error is sticky and
// closes the connection, so the read side notices and tears down; a
// sender whose frame was queued behind a failing write learns of it
// from that teardown (its request fails with ErrConnLost).
type frameWriter struct {
	conn    io.WriteCloser
	mu      sync.Mutex
	drained *sync.Cond // signalled after each write
	buf     []byte     // frames queued for the next write
	spare   []byte     // the buffer of the write in flight, reused next
	busy    bool
	err     error
}

func newFrameWriter(conn io.WriteCloser) *frameWriter {
	fw := &frameWriter{conn: conn}
	fw.drained = sync.NewCond(&fw.mu)
	return fw
}

// send queues one frame carrying payload.
func (fw *frameWriter) send(payload []byte) error {
	fw.mu.Lock()
	buf, err := appendFrame(fw.buf, payload)
	if err != nil {
		fw.mu.Unlock()
		return err
	}
	fw.buf = buf
	return fw.flushLocked()
}

// sendFramed queues bytes that already hold whole frames (built with
// StartFrame/EndFrame).
func (fw *frameWriter) sendFramed(frames []byte) error {
	fw.mu.Lock()
	fw.buf = append(fw.buf, frames...)
	return fw.flushLocked()
}

// flushLocked is entered with mu held after queuing a frame and returns
// with it released. It either hands the frame to the write in flight or
// becomes the flusher.
func (fw *frameWriter) flushLocked() error {
	if fw.busy {
		for fw.busy && fw.err == nil && len(fw.buf) > maxPendingWrite {
			fw.drained.Wait()
		}
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	fw.busy = true
	for len(fw.buf) > 0 && fw.err == nil {
		out := fw.buf
		fw.buf = fw.spare[:0]
		fw.mu.Unlock()
		_, err := fw.conn.Write(out)
		if err != nil {
			fw.conn.Close()
		}
		fw.mu.Lock()
		if cap(out) <= maxRetainedBuf {
			fw.spare = out[:0]
		} else {
			fw.spare = nil
		}
		if err != nil {
			fw.err = err
		}
		fw.drained.Broadcast()
	}
	fw.busy = false
	fw.buf = fw.buf[:0]
	err := fw.err
	fw.mu.Unlock()
	return err
}

// --- encoding helpers ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendHeaders(dst []byte, h map[string]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(h)))
	for k, v := range h {
		dst = appendString(dst, k)
		dst = appendString(dst, v)
	}
	return dst
}

// reader decodes fields sequentially and remembers the first error, so
// call sites stay linear.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s", what)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.fail("byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail("string")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("bytes")
		return nil
	}
	b := append([]byte(nil), r.buf[:n]...)
	r.buf = r.buf[n:]
	return b
}

// tags decodes a uint64 count followed by that many uint64 tags. The
// count is checked against the bytes left before allocating, so a
// corrupt count cannot force a huge allocation.
func (r *reader) tags() []uint64 {
	n := r.uint64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)/8) {
		r.fail("tags")
		return nil
	}
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = r.uint64()
	}
	return tags
}

func (r *reader) headers() map[string]string {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("headers")
		return nil
	}
	h := make(map[string]string, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		k := r.string()
		v := r.string()
		h[k] = v
	}
	return h
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// encodeStats flattens QueueStats; floats travel as IEEE bits.
func encodeStats(dst []byte, st broker.QueueStats) []byte {
	dst = appendString(dst, st.Name)
	dst = binary.AppendUvarint(dst, uint64(st.Ready))
	dst = binary.AppendUvarint(dst, uint64(st.Unacked))
	dst = binary.AppendUvarint(dst, uint64(st.Consumers))
	dst = binary.AppendUvarint(dst, uint64(st.Published))
	dst = binary.AppendUvarint(dst, uint64(st.Delivered))
	dst = binary.AppendUvarint(dst, uint64(st.Acked))
	dst = binary.AppendUvarint(dst, uint64(st.Redelivered))
	dst = binary.AppendUvarint(dst, uint64(st.DeadLettered))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.InRate))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.OutRate))
	return dst
}

func (r *reader) stats() broker.QueueStats {
	var st broker.QueueStats
	st.Name = r.string()
	st.Ready = int(r.uvarint())
	st.Unacked = int(r.uvarint())
	st.Consumers = int(r.uvarint())
	st.Published = int64(r.uvarint())
	st.Delivered = int64(r.uvarint())
	st.Acked = int64(r.uvarint())
	st.Redelivered = int64(r.uvarint())
	st.DeadLettered = int64(r.uvarint())
	st.InRate = math.Float64frombits(r.uint64())
	st.OutRate = math.Float64frombits(r.uint64())
	return st
}
