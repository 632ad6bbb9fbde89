package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"bistream/internal/broker"
)

// Server accepts TCP connections and executes broker operations on
// behalf of remote clients. One Server fronts one broker.Broker; the
// broker reference is swappable (SetBroker) so a replica node can run
// the listener continuously and only attach a broker while it is the
// leader. While no broker is attached every request is answered with
// broker.ErrNotLeader and the connection is closed, steering
// multi-address clients to the current leader.
type Server struct {
	bmu    sync.RWMutex
	b      *broker.Broker
	ln     net.Listener
	logf   func(format string, args ...any)
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps the broker (nil for a follower that will attach one
// on promotion). Call Listen to start accepting.
func NewServer(b *broker.Broker, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{b: b, logf: logf, conns: make(map[net.Conn]struct{})}
}

// SetBroker swaps the served broker; nil detaches it (follower mode).
// Existing connections bound to the old broker are dropped so their
// clients re-dial and re-probe the broker set.
func (s *Server) SetBroker(b *broker.Broker) {
	s.bmu.Lock()
	old := s.b
	s.b = b
	s.bmu.Unlock()
	if old == b {
		return
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Broker returns the currently attached broker (nil in follower mode).
func (s *Server) Broker() *broker.Broker {
	s.bmu.RLock()
	defer s.bmu.RUnlock()
	return s.b
}

// Listen binds the address and starts serving in background goroutines.
// It returns the bound address (useful with ":0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener and drops all connections. The broker itself
// is not closed; it may be shared.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// session is the per-connection state: its consumers and the writer
// that serializes (and coalesces) frames onto the socket.
type session struct {
	srv       *Server
	conn      net.Conn
	out       *frameWriter
	mu        sync.Mutex
	consumers map[uint64]broker.Consumer
	wg        sync.WaitGroup
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	sess := newSession(s, conn)
	defer sess.teardown()
	br := bufio.NewReader(conn)
	var frame []byte
	for {
		var err error
		frame, err = readFrameInto(br, frame)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: connection %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if err := sess.handle(frame); err != nil {
			s.logf("wire: connection %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{srv: s, conn: conn, out: newFrameWriter(conn), consumers: make(map[uint64]broker.Consumer)}
}

func (sess *session) teardown() {
	sess.mu.Lock()
	consumers := make([]broker.Consumer, 0, len(sess.consumers))
	for _, c := range sess.consumers {
		consumers = append(consumers, c)
	}
	sess.consumers = map[uint64]broker.Consumer{}
	sess.mu.Unlock()
	for _, c := range consumers {
		c.Cancel()
	}
	sess.conn.Close()
	sess.wg.Wait()
	sess.srv.mu.Lock()
	delete(sess.srv.conns, sess.conn)
	sess.srv.mu.Unlock()
}

func (sess *session) send(payload []byte) error { return sess.out.send(payload) }

func (sess *session) reply(reqID uint64, err error) error {
	payload := []byte{opReply}
	payload = binary.LittleEndian.AppendUint64(payload, reqID)
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	payload = appendString(payload, msg)
	return sess.send(payload)
}

func (sess *session) handle(frame []byte) error {
	op := frame[0]
	r := &reader{buf: frame[1:]}
	reqID := r.uint64()
	b := sess.srv.Broker()
	if b == nil {
		// Follower mode: refuse and hang up, so the client's next dial
		// probes its way to the leader.
		_ = sess.reply(reqID, broker.ErrNotLeader)
		return fmt.Errorf("request while not leader")
	}
	switch op {
	case opDeclareExchange:
		name := r.string()
		kind := broker.ExchangeKind(r.byte())
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, b.DeclareExchange(name, kind))
	case opDeclareQueue:
		name := r.string()
		autoDelete := r.bool()
		maxLen := int(r.uvarint())
		durable := r.bool()
		maxRedeliver := int(r.uvarint()) - 1 // shifted: unlimited (-1) travels as 0
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, b.DeclareQueue(name, broker.QueueOptions{
			AutoDelete: autoDelete, MaxLen: maxLen, Durable: durable,
			MaxRedeliver: maxRedeliver,
		}))
	case opDeleteQueue:
		name := r.string()
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, b.DeleteQueue(name))
	case opBind:
		q := r.string()
		ex := r.string()
		key := r.string()
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, b.Bind(q, ex, key))
	case opPublish:
		ex := r.string()
		key := r.string()
		headers := r.headers()
		body := r.bytes()
		if r.err != nil {
			return r.err
		}
		// Publish may block on backpressure; do it inline so TCP reads
		// pause, propagating the backpressure to the remote publisher.
		return sess.reply(reqID, b.Publish(ex, key, headers, body))
	case opConsume:
		id := r.uint64() // client-assigned consumer id
		queue := r.string()
		prefetch := r.uvarint()
		autoAck := r.bool()
		if r.err != nil {
			return r.err
		}
		if prefetch > maxPrefetch {
			// The broker sizes the consumer's buffer by prefetch; an
			// untrusted count must not choose that allocation.
			return sess.reply(reqID, fmt.Errorf("wire: prefetch %d exceeds limit %d", prefetch, maxPrefetch))
		}
		sess.mu.Lock()
		_, taken := sess.consumers[id]
		sess.mu.Unlock()
		if taken {
			// Replacing the consumer would orphan its pump, which
			// teardown could then never stop.
			return sess.reply(reqID, fmt.Errorf("wire: consumer id %d already in use", id))
		}
		cons, err := b.Consume(queue, int(prefetch), autoAck)
		if err != nil {
			return sess.reply(reqID, err)
		}
		sess.mu.Lock()
		sess.consumers[id] = cons
		sess.mu.Unlock()
		payload := []byte{opConsumeOK}
		payload = binary.LittleEndian.AppendUint64(payload, reqID)
		if err := sess.send(payload); err != nil {
			cons.Cancel()
			return err
		}
		sess.wg.Add(1)
		go sess.pumpDeliveries(id, cons)
		return nil
	case opAck:
		id := r.uint64()
		tag := r.uint64()
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, sess.withConsumer(id, func(c broker.Consumer) error { return c.Ack(tag) }))
	case opNack:
		id := r.uint64()
		tag := r.uint64()
		requeue := r.bool()
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, sess.withConsumer(id, func(c broker.Consumer) error { return c.Nack(tag, requeue) }))
	case opCancel:
		id := r.uint64()
		if r.err != nil {
			return r.err
		}
		sess.mu.Lock()
		c, ok := sess.consumers[id]
		delete(sess.consumers, id)
		sess.mu.Unlock()
		var err error
		if !ok {
			err = broker.ErrConsumerClosed
		} else {
			err = c.Cancel()
		}
		return sess.reply(reqID, err)
	case opAckBatch:
		id := r.uint64()
		tags := r.tags()
		if r.err != nil {
			return r.err
		}
		// Every session consumer comes from Broker.Consume, whose
		// consumers settle a batch under one queue lock.
		return sess.reply(reqID, sess.withConsumer(id, func(c broker.Consumer) error {
			return c.(interface{ AckBatch([]uint64) error }).AckBatch(tags)
		}))
	case opPing:
		if r.err != nil {
			return r.err
		}
		return sess.reply(reqID, nil)
	case opQueueStats:
		name := r.string()
		if r.err != nil {
			return r.err
		}
		st, err := b.QueueStats(name)
		payload := []byte{opStatsReply}
		payload = binary.LittleEndian.AppendUint64(payload, reqID)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		payload = appendString(payload, msg)
		payload = encodeStats(payload, st)
		return sess.send(payload)
	default:
		return fmt.Errorf("wire: unknown opcode %d", op)
	}
}

func (sess *session) withConsumer(id uint64, fn func(broker.Consumer) error) error {
	sess.mu.Lock()
	c, ok := sess.consumers[id]
	sess.mu.Unlock()
	if !ok {
		return broker.ErrConsumerClosed
	}
	return fn(c)
}

// maxPrefetch bounds a remote consumer's prefetch window; like AMQP's
// 16-bit prefetch-count, it keeps a client from sizing server buffers.
const maxPrefetch = 1<<16 - 1

// maxDeliverBurst bounds how many waiting deliveries one write carries.
const maxDeliverBurst = 256

// pumpDeliveries forwards broker deliveries to the remote client. Every
// delivery already waiting when one arrives rides in the same write
// (up to maxDeliverBurst); a lone delivery leaves at once. A stalled
// socket still backpressures the broker's dispatcher — the session
// writer blocks the pump once maxPendingWrite bytes are queued — which
// is exactly the flow control we want.
func (sess *session) pumpDeliveries(id uint64, cons broker.Consumer) {
	defer sess.wg.Done()
	ch := cons.Deliveries()
	var buf []byte
	open := true
	for open {
		d, ok := <-ch
		if !ok {
			break
		}
		var err error
		buf, err = appendDeliver(buf[:0], id, d)
	burst:
		for n := 1; n < maxDeliverBurst && err == nil; n++ {
			select {
			case d, ok = <-ch:
				if !ok {
					open = false
					break burst
				}
				buf, err = appendDeliver(buf, id, d)
			default:
				break burst
			}
		}
		if err == nil {
			err = sess.out.sendFramed(buf)
		}
		if err != nil {
			cons.Cancel()
			return
		}
		if cap(buf) > maxRetainedBuf {
			buf = nil
		}
	}
	payload := []byte{opConsumerEOF}
	payload = binary.LittleEndian.AppendUint64(payload, id)
	_ = sess.send(payload)
}

// appendDeliver appends one opDeliver frame for d to dst.
func appendDeliver(dst []byte, id uint64, d broker.Delivery) ([]byte, error) {
	dst, start := StartFrame(dst)
	dst = append(dst, opDeliver)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, d.Tag)
	dst = append(dst, boolByte(d.Redelivered))
	dst = appendString(dst, d.Queue)
	dst = appendString(dst, d.Exchange)
	dst = appendString(dst, d.RoutingKey)
	dst = appendHeaders(dst, d.Headers)
	dst = appendBytes(dst, d.Body)
	return dst, EndFrame(dst, start)
}

// ListenAndServe is a convenience for cmd/brokerd: serve until the
// process exits.
func ListenAndServe(addr string, b *broker.Broker) error {
	srv := NewServer(b, log.Printf)
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	log.Printf("brokerd listening on %v", bound)
	select {} // run forever; the process is terminated externally
}
