package wire

import (
	"encoding/binary"
	"io"
	"net"
	"testing"

	"bistream/internal/broker"
)

// request builds a request frame the way the client does: opcode, then
// the correlation id, then the fields appended by fill.
func request(op byte, fill func([]byte) []byte) []byte {
	payload := binary.LittleEndian.AppendUint64([]byte{op}, 7)
	if fill != nil {
		payload = fill(payload)
	}
	return payload
}

func u64(v uint64) func([]byte) []byte {
	return func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, v) }
}

// FuzzServerFrame throws arbitrary request frames at the brokerd
// request handler (session.handle) in front of a live in-process broker
// that already holds an exchange, a bound queue, messages and an
// attached consumer, so acks, nacks, batch acks and cancels reach real
// consumer state. Whatever the bytes, the handler must return (an error
// is fine) and never panic.
func FuzzServerFrame(f *testing.F) {
	f.Add(request(opDeclareExchange, func(b []byte) []byte { return append(appendString(b, "ex2"), byte(broker.Topic)) }))
	f.Add(request(opDeclareQueue, func(b []byte) []byte {
		b = appendString(b, "q2")
		b = append(b, 1)
		b = binary.AppendUvarint(b, 4)
		b = append(b, 0)
		return binary.AppendUvarint(b, 0)
	}))
	f.Add(request(opDeleteQueue, func(b []byte) []byte { return appendString(b, "q") }))
	f.Add(request(opBind, func(b []byte) []byte { return appendString(appendString(appendString(b, "q"), "ex"), "k2") }))
	f.Add(request(opPublish, func(b []byte) []byte {
		b = appendString(appendString(b, "ex"), "k")
		b = appendHeaders(b, map[string]string{"h": "v"})
		return appendBytes(b, []byte("body"))
	}))
	f.Add(request(opConsume, func(b []byte) []byte {
		b = appendString(binary.LittleEndian.AppendUint64(b, 2), "q")
		return append(binary.AppendUvarint(b, 4), 0)
	}))
	f.Add(request(opAck, func(b []byte) []byte { return u64(1)(u64(1)(b)) }))
	f.Add(request(opNack, func(b []byte) []byte { return append(u64(2)(u64(1)(b)), 1) }))
	f.Add(request(opAckBatch, func(b []byte) []byte { return u64(2)(u64(1)(u64(2)(u64(1)(b)))) }))
	f.Add(request(opAckBatch, func(b []byte) []byte { return u64(1 << 62)(u64(1)(b)) }))
	f.Add(request(opCancel, u64(1)))
	f.Add(request(opQueueStats, func(b []byte) []byte { return appendString(b, "q") }))
	f.Add(request(opPing, nil))
	f.Add([]byte{opDeliver})
	f.Add([]byte{0xff, 0, 1})
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 || len(frame) > maxFrame {
			return // readFrame never hands the handler such a frame
		}
		b := broker.New(nil)
		defer b.Close()
		if err := b.DeclareExchange("ex", broker.Direct); err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareQueue("q", broker.QueueOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := b.Bind("q", "ex", "k"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := b.Publish("ex", "k", nil, []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
		peer, conn := net.Pipe()
		defer peer.Close()
		go io.Copy(io.Discard, peer)
		srv := NewServer(b, nil)
		sess := newSession(srv, conn)
		cons, err := b.Consume("q", 8, false)
		if err != nil {
			t.Fatal(err)
		}
		sess.consumers[1] = cons
		sess.wg.Add(1)
		go sess.pumpDeliveries(1, cons)
		_ = sess.handle(frame)
		sess.teardown()
	})
}
