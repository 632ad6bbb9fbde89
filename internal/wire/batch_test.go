package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bistream/internal/broker"
)

// countingWriter records how many Write calls reach it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func (w *countingWriter) Close() error { return nil }

// TestWriteFrameIsOneWrite: header and payload leave in a single Write
// call, and the bytes still parse back as the same frame.
func TestWriteFrameIsOneWrite(t *testing.T) {
	var w countingWriter
	if err := writeFrame(&w, []byte{opPing, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("writeFrame made %d writes; want 1", w.writes)
	}
	got, err := readFrame(&w.Buffer)
	if err != nil || !bytes.Equal(got, []byte{opPing, 1, 2, 3}) {
		t.Fatalf("read back %v, %v", got, err)
	}
}

// blockingConn is a frame sink whose first Write blocks until released,
// so frames sent meanwhile must queue behind it.
type blockingConn struct {
	countingWriter
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func (c *blockingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	first := c.writes == 0
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.release
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.countingWriter.Write(p)
}

// TestFrameWriterCoalescesQueuedFrames: frames sent while a write is in
// flight leave together in the next write, in send order.
func TestFrameWriterCoalescesQueuedFrames(t *testing.T) {
	conn := &blockingConn{entered: make(chan struct{}), release: make(chan struct{})}
	fw := newFrameWriter(conn)
	done := make(chan error, 1)
	go func() { done <- fw.send([]byte{1}) }()
	<-conn.entered
	for i := byte(2); i <= 5; i++ {
		if err := fw.send([]byte{i}); err != nil { // queued, returns at once
			t.Fatal(err)
		}
	}
	close(conn.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if conn.writes != 2 {
		t.Fatalf("5 frames took %d writes; want 2 (one in flight, then the queued four)", conn.writes)
	}
	for want := byte(1); want <= 5; want++ {
		got, err := readFrame(&conn.Buffer)
		if err != nil || len(got) != 1 || got[0] != want {
			t.Fatalf("frame %d: got %v, %v", want, got, err)
		}
	}
}

// TestFrameWriterBackpressures: once more than maxPendingWrite bytes
// are queued behind a stalled write, further senders block until the
// write completes, as a blocking socket write would have made them.
func TestFrameWriterBackpressures(t *testing.T) {
	conn := &blockingConn{entered: make(chan struct{}), release: make(chan struct{})}
	fw := newFrameWriter(conn)
	go fw.send([]byte{1})
	<-conn.entered
	big := make([]byte, maxPendingWrite/2+1)
	if err := fw.send(big); err != nil { // under the bound: queued at once
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- fw.send(big) }() // over the bound: must wait
	select {
	case err := <-blocked:
		t.Fatalf("send past the pending bound returned (%v) while the write was stalled", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(conn.release)
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sender still blocked after the stalled write completed")
	}
}

// consumeTags publishes n messages to a fresh queue and collects the
// delivery tags of an unacknowledged consumer.
func consumeTags(t *testing.T, c *Client, n int) (broker.Consumer, []uint64) {
	t.Helper()
	if err := c.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareQueue("q", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	cons, err := c.Consume("q", n, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Publish("ex", "k", nil, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	tags := make([]uint64, 0, n)
	for len(tags) < n {
		select {
		case d := <-cons.Deliveries():
			tags = append(tags, d.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("got %d of %d deliveries", len(tags), n)
		}
	}
	return cons, tags
}

// TestRemoteAckBatchSettlesEveryTag: one AckBatch over the wire settles
// the whole batch, and settling the same tags again is refused.
func TestRemoteAckBatchSettlesEveryTag(t *testing.T) {
	b, c := startPair(t)
	cons, tags := consumeTags(t, c, 32)
	ba, ok := cons.(interface{ AckBatch([]uint64) error })
	if !ok {
		t.Fatal("remote consumer has no AckBatch")
	}
	if err := ba.AckBatch(tags); err != nil {
		t.Fatal(err)
	}
	st, err := b.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Acked != 32 || st.Unacked != 0 {
		t.Fatalf("after AckBatch: acked=%d unacked=%d; want 32 and 0", st.Acked, st.Unacked)
	}
	if err := ba.AckBatch(tags[:1]); !errors.Is(err, ErrStaleDelivery) {
		t.Fatalf("re-acking a settled tag = %v; want ErrStaleDelivery", err)
	}
}

// TestRemoteAckBatchRejectsStaleGeneration: after a reconnect, tags
// handed out over the old connection are refused by AckBatch exactly as
// by Ack, while fresh tags in the same batch still settle.
func TestRemoteAckBatchRejectsStaleGeneration(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	srv := NewServer(b, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastReconnect(addr.String())
	cfg.Logf = t.Logf
	c, err := Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cons, old := consumeTags(t, c, 2)
	ba := cons.(interface{ AckBatch([]uint64) error })

	// Restart the listener in front of the same broker: the session dies,
	// its unacked deliveries are requeued, and the client reconnects.
	srv.Close()
	srv2 := NewServer(b, t.Logf)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := srv2.Listen(addr.String()); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// The requeued messages come back under the new generation.
	var fresh []uint64
	for len(fresh) < 2 {
		select {
		case d := <-cons.Deliveries():
			fresh = append(fresh, d.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d redeliveries after reconnect", len(fresh))
		}
	}
	if c.Generation() < 2 {
		t.Fatalf("generation %d; want a reconnect", c.Generation())
	}
	if err := ba.AckBatch(old[:1]); !errors.Is(err, ErrStaleDelivery) {
		t.Fatalf("AckBatch of a stale tag = %v; want ErrStaleDelivery", err)
	}
	if err := cons.Ack(old[1]); !errors.Is(err, ErrStaleDelivery) {
		t.Fatalf("Ack of a stale tag = %v; want ErrStaleDelivery", err)
	}
	if err := ba.AckBatch(append([]uint64{old[0]}, fresh...)); !errors.Is(err, ErrStaleDelivery) {
		t.Fatalf("mixed AckBatch = %v; want ErrStaleDelivery", err)
	}
	st, err := b.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Unacked != 0 || st.Ready != 0 || st.Acked != 2 {
		t.Fatalf("after mixed AckBatch: ready=%d unacked=%d acked=%d; want the fresh tags settled",
			st.Ready, st.Unacked, st.Acked)
	}
}

// scriptedServer speaks just enough of the protocol to answer every
// request with success, recording each connection's opcodes in arrival
// order. The reply to the first opBind on a second connection is held
// until release is closed; requests behind it are still read, recorded
// and answered.
type scriptedServer struct {
	ln      net.Listener
	mu      sync.Mutex
	ops     [][]byte // per connection, in arrival order
	conns   []net.Conn
	bindIn  chan struct{} // closed when the held bind arrives
	release chan struct{}
}

func newScriptedServer(t *testing.T) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{ln: ln, bindIn: make(chan struct{}), release: make(chan struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			idx := len(s.ops)
			s.ops = append(s.ops, nil)
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go s.serve(conn, idx)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, c := range s.conns {
			c.Close()
		}
	})
	return s
}

func (s *scriptedServer) serve(conn net.Conn, idx int) {
	var writeMu sync.Mutex
	reply := func(frame []byte) {
		payload := []byte{opReply}
		if frame[0] == opConsume {
			payload[0] = opConsumeOK
		}
		payload = append(payload, frame[1:9]...) // echo the correlation id
		if frame[0] != opConsume {
			payload = appendString(payload, "")
		}
		writeMu.Lock()
		defer writeMu.Unlock()
		_ = writeFrame(conn, payload)
	}
	held := false
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.ops[idx] = append(s.ops[idx], frame[0])
		s.mu.Unlock()
		if frame[0] == opBind && idx == 1 && !held {
			held = true
			close(s.bindIn)
			go func() {
				<-s.release
				reply(frame)
			}()
			continue
		}
		reply(frame)
	}
}

func (s *scriptedServer) opsOf(idx int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.ops[idx]...)
}

// TestReplayHoldsApplicationCalls: after a reconnect, an application
// publish issued while the topology replay is still in progress waits
// until the replay has finished, so it can never reach a broker whose
// bindings are only partly restored.
func TestReplayHoldsApplicationCalls(t *testing.T) {
	s := newScriptedServer(t)
	cfg := fastReconnect(s.ln.Addr().String())
	cfg.Logf = t.Logf
	c, err := Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareQueue("q", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	s.conns[0].Close() // drop the first connection; the client redials
	s.mu.Unlock()
	select {
	case <-s.bindIn: // replay reached the (held) bind on connection 2
	case <-time.After(5 * time.Second):
		t.Fatal("replay never re-sent the bind")
	}

	published := make(chan error, 1)
	go func() { published <- c.Publish("ex", "k", nil, []byte("m")) }()
	time.Sleep(50 * time.Millisecond)
	for _, op := range s.opsOf(1) {
		if op == opPublish {
			t.Fatal("publish reached the broker before the replay finished")
		}
	}
	close(s.release)
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish still held after the replay finished")
	}
	want := []byte{opDeclareExchange, opDeclareQueue, opBind, opPublish}
	if got := s.opsOf(1); !bytes.Equal(got, want) {
		t.Fatalf("connection 2 saw opcodes %v; want %v", got, want)
	}
}
