package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"bistream/internal/broker"
	"bistream/internal/protocol"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

// spanKind names what a span times. Every span is recorded from the
// benchmark's side of a layer boundary: around a call into the broker
// client, at a consumer's receipt of a delivery, or around
// Engine.IngestContext.
type spanKind uint8

const (
	kIngest       spanKind = iota // Engine.IngestContext
	kPubEntry                     // publish of a raw tuple (inside IngestContext)
	kPubStore                     // router publish of a store copy
	kPubJoin                      // router publish of a join copy
	kPubPunct                     // router publish of a punctuation or tombstone
	kPubResult                    // joiner publish of a join result
	kRecvEntry                    // router consumer receipt (instant)
	kRecvStore                    // joiner receipt of a store copy (instant)
	kRecvJoin                     // joiner receipt of a join copy (instant)
	kRecvResult                   // sink receipt of a result (instant)
	kRouterHandle                 // router: receipt → start of its ack
	kSink                         // sink: receipt → end of its ack (includes OnResult)
	kSettle                       // one Ack, AckBatch or Nack call
	numKinds
)

var kindNames = [numKinds]string{
	"ingest", "pub.entry", "pub.store", "pub.join", "pub.punct", "pub.result",
	"recv.entry", "recv.store", "recv.join", "recv.result",
	"router.handle", "sink", "settle",
}

// Run phases, as the tracer attributes calls to them.
const (
	phaseWarm = iota
	phasePaced
	phasePeak
	phaseDrain
	numPhases
)

// span is one timed call. Instants have end == start.
type span struct {
	start, end int64 // nanotime
	id         uint64
	kind       spanKind
	phase      uint8
}

// sampleEvery is the trace-id sampling ratio: spans are kept for one in
// sampleEvery tuples (and result pairs), while every call is counted.
const sampleEvery = 64

func sampled(id uint64) bool { return id != 0 && mix(id)%sampleEvery == 0 }

// maxSpans bounds the in-memory span log; spans past it are counted,
// not kept.
const maxSpans = 1 << 21

// tally counts every traced call of one phase.
type tally struct {
	pubCalls, pubNanos, pubBytes [numKinds]atomic.Int64

	ingestNanos              atomic.Int64
	settleCalls, settleNanos atomic.Int64

	routerBusy, routerNacks                       atomic.Int64
	joinerBatches, joinerDeliveries, joinerTuples atomic.Int64
	joinerBusy, sinkBusy                          atomic.Int64
}

// tracer records spans and tallies for one traced run. Its client and
// consumer wrappers sit between the engine and its broker client, so
// the engine's own code runs unchanged.
type tracer struct {
	phase   atomic.Int32
	tallies [numPhases]tally

	mu      sync.Mutex
	spans   []span
	dropped int64

	settleSeq, punctSeq atomic.Int64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// setPhase starts phase p; calls from now on count toward it.
func (t *tracer) setPhase(p int) { t.phase.Store(int32(p)) }

func (t *tracer) cur() (*tally, uint8) {
	p := t.phase.Load()
	return &t.tallies[p], uint8(p)
}

func (t *tracer) record(kind spanKind, id uint64, start, end int64, phase uint8) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{start: start, end: end, id: id, kind: kind, phase: phase})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// ingest records one Engine.IngestContext call of tuple seq.
func (t *tracer) ingest(seq uint64, start, end int64) {
	tl, ph := t.cur()
	tl.ingestNanos.Add(end - start)
	if sampled(seq) {
		t.record(kIngest, seq, start, end, ph)
	}
}

// snapshot copies the span log.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the span log as CSV (kind,phase,id,start_ns,end_ns).
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,phase,id,start_ns,end_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", kindNames[s.kind], s.phase, s.id, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- body decoding: trace ids come from message bodies ----

// tupleSeq reads the seq of an encoded tuple (tuple codec layout).
func tupleSeq(b []byte) uint64 {
	if len(b) < 9 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[1:9])
}

// skipTuple returns the encoded length of the tuple at the front of b,
// or 0 if it is malformed.
func skipTuple(b []byte) int {
	if len(b) < 17 {
		return 0
	}
	n := 17
	if b[0]&0x80 != 0 {
		n += 8
	}
	count, sz := binary.Uvarint(b[min(n, len(b)):])
	if sz <= 0 {
		return 0
	}
	n += sz
	for i := uint64(0); i < count; i++ {
		if n >= len(b) {
			return 0
		}
		kind := b[n]
		n++
		if tuple.Kind(kind) == tuple.KindString { // uvarint length + bytes
			l, sz := binary.Uvarint(b[n:])
			if sz <= 0 {
				return 0
			}
			n += sz + int(l)
		} else {
			n += 8
		}
	}
	if n > len(b) {
		return 0
	}
	return n
}

// resultID is the pairKey of an encoded result (two tuples, R first).
func resultID(b []byte) uint64 {
	n := skipTuple(b)
	if n == 0 {
		return 0
	}
	return pairKey(tupleSeq(b), tupleSeq(b[n:]))
}

// envelopeID classifies a router envelope: its tuple's seq and stream,
// or 0 for signals.
func envelopeID(b []byte) (uint64, protocol.Stream) {
	if len(b) < 14 || protocol.Kind(b[0]) != protocol.KindTuple {
		return 0, 0
	}
	return tupleSeq(b[14:]), protocol.Stream(b[13])
}

func publishKind(exchange string, body []byte) (spanKind, uint64) {
	switch exchange {
	case topo.EntryExchange:
		return kPubEntry, tupleSeq(body)
	case topo.ResultExchange:
		return kPubResult, resultID(body)
	}
	id, stream := envelopeID(body)
	switch {
	case id == 0:
		return kPubPunct, 0
	case stream == protocol.StreamStore:
		return kPubStore, id
	default:
		return kPubJoin, id
	}
}

// ---- client wrapper ----

// tclient wraps a broker.Client, timing every publish and wrapping
// every consumer. Use wrapClient, which adds PublishContext exactly
// when the wrapped client has it, so the engine takes the same path
// through the traced client as through the bare one.
type tclient struct {
	broker.Client
	t *tracer
}

// tctxClient is a tclient over a broker.ContextPublisher.
type tctxClient struct {
	*tclient
	cp broker.ContextPublisher
}

func (t *tracer) wrapClient(c broker.Client) broker.Client {
	tc := &tclient{Client: c, t: t}
	if cp, ok := c.(broker.ContextPublisher); ok {
		return &tctxClient{tclient: tc, cp: cp}
	}
	return tc
}

func (c *tclient) timePublish(exchange string, body []byte, call func() error) error {
	start := nanotime()
	err := call()
	end := nanotime()
	kind, id := publishKind(exchange, body)
	tl, ph := c.t.cur()
	tl.pubCalls[kind].Add(1)
	tl.pubNanos[kind].Add(end - start)
	tl.pubBytes[kind].Add(int64(len(body)))
	if kind == kPubPunct {
		if c.t.punctSeq.Add(1)%sampleEvery == 0 {
			c.t.record(kind, 0, start, end, ph)
		}
	} else if sampled(id) {
		c.t.record(kind, id, start, end, ph)
	}
	return err
}

func (c *tclient) Publish(exchange, key string, headers map[string]string, body []byte) error {
	return c.timePublish(exchange, body, func() error {
		return c.Client.Publish(exchange, key, headers, body)
	})
}

func (c *tctxClient) PublishContext(ctx context.Context, exchange, key string, headers map[string]string, body []byte) error {
	return c.timePublish(exchange, body, func() error {
		return c.cp.PublishContext(ctx, exchange, key, headers, body)
	})
}

func (c *tclient) Consume(queue string, prefetch int, autoAck bool) (broker.Consumer, error) {
	inner, err := c.Client.Consume(queue, prefetch, autoAck)
	if err != nil {
		return nil, err
	}
	return c.t.wrapConsumer(inner, roleOf(queue), prefetch), nil
}

// ---- consumer wrapper ----

type role uint8

const (
	roleOther role = iota
	roleRouter
	roleJoiner
	roleSink
)

func roleOf(queue string) role {
	switch {
	case queue == topo.EntryQueue:
		return roleRouter
	case strings.HasPrefix(queue, topo.ResultExchange):
		return roleSink
	case strings.Contains(queue, "store.exchange.q.") || strings.Contains(queue, "join.exchange.q."):
		return roleJoiner
	}
	return roleOther
}

// arrival is what the forwarder learned about one delivery.
type arrival struct {
	at    int64
	id    uint64
	tuple bool
}

// tconsumer interposes a forwarding goroutine between the broker's
// delivery channel and the service, stamping each delivery's receipt.
// Settle calls then close the service's handle span: a service that
// processes its deliveries in order picks one up at the later of its
// arrival and the end of its previous settle.
type tconsumer struct {
	inner broker.Consumer
	t     *tracer
	role  role
	out   chan broker.Delivery
	dead  chan struct{}
	once  sync.Once

	mu         sync.Mutex
	arrivals   map[uint64]arrival
	lastSettle int64
}

// tbatchConsumer adds AckBatch when the wrapped consumer has it.
type tbatchConsumer struct {
	*tconsumer
	ba interface{ AckBatch(tags []uint64) error }
}

func (t *tracer) wrapConsumer(inner broker.Consumer, r role, prefetch int) broker.Consumer {
	c := &tconsumer{
		inner: inner,
		t:     t,
		role:  r,
		// Same depth as the broker-side prefetch window, so the service
		// can gather as large a batch as it could without the wrapper.
		out:      make(chan broker.Delivery, max(prefetch, 1)),
		dead:     make(chan struct{}),
		arrivals: make(map[uint64]arrival),
	}
	go c.forward()
	if ba, ok := inner.(interface{ AckBatch(tags []uint64) error }); ok {
		return &tbatchConsumer{tconsumer: c, ba: ba}
	}
	return c
}

func (c *tconsumer) forward() {
	defer close(c.out)
	for d := range c.inner.Deliveries() {
		now := nanotime()
		a := arrival{at: now}
		kind := spanKind(numKinds)
		switch c.role {
		case roleRouter:
			a.id, a.tuple, kind = tupleSeq(d.Body), true, kRecvEntry
		case roleJoiner:
			var st protocol.Stream
			a.id, st = envelopeID(d.Body)
			a.tuple = a.id != 0
			kind = kRecvJoin
			if st == protocol.StreamStore {
				kind = kRecvStore
			}
		case roleSink:
			a.id, a.tuple, kind = resultID(d.Body), true, kRecvResult
		}
		c.mu.Lock()
		c.arrivals[d.Tag] = a
		c.mu.Unlock()
		if kind < numKinds && sampled(a.id) {
			_, ph := c.t.cur()
			c.t.record(kind, a.id, now, now, ph)
		}
		select {
		case c.out <- d:
		case <-c.dead:
			// Cancelled: keep draining the broker side until it closes.
		}
	}
}

func (c *tconsumer) Deliveries() <-chan broker.Delivery { return c.out }

func (c *tconsumer) Ack(tag uint64) error {
	start := nanotime()
	err := c.inner.Ack(tag)
	c.settled(tag, nil, start, nanotime(), false)
	return err
}

func (c *tconsumer) Nack(tag uint64, requeue bool) error {
	start := nanotime()
	err := c.inner.Nack(tag, requeue)
	c.settled(tag, nil, start, nanotime(), true)
	return err
}

func (c *tconsumer) Cancel() error {
	c.once.Do(func() { close(c.dead) })
	return c.inner.Cancel()
}

func (c *tbatchConsumer) AckBatch(tags []uint64) error {
	if len(tags) == 0 {
		return c.ba.AckBatch(tags)
	}
	start := nanotime()
	err := c.ba.AckBatch(tags)
	c.settled(tags[0], tags[1:], start, nanotime(), false)
	return err
}

// settled accounts one settle call covering tag and rest, which ran
// from start to end.
func (c *tconsumer) settled(tag uint64, rest []uint64, start, end int64, nack bool) {
	c.mu.Lock()
	a, ok := c.arrivals[tag]
	delete(c.arrivals, tag)
	tuples := 0
	if a.tuple {
		tuples++
	}
	for _, tg := range rest {
		if r, ok := c.arrivals[tg]; ok && r.tuple {
			tuples++
		}
		delete(c.arrivals, tg)
	}
	recv := max(a.at, c.lastSettle)
	c.lastSettle = end
	c.mu.Unlock()

	tl, ph := c.t.cur()
	tl.settleCalls.Add(1)
	tl.settleNanos.Add(end - start)
	if c.t.settleSeq.Add(1)%sampleEvery == 0 {
		c.t.record(kSettle, 0, start, end, ph)
	}
	if !ok {
		return
	}
	switch c.role {
	case roleRouter:
		tl.routerBusy.Add(end - recv)
		if nack {
			tl.routerNacks.Add(1)
		}
		if sampled(a.id) {
			c.t.record(kRouterHandle, a.id, recv, start, ph)
		}
	case roleJoiner:
		tl.joinerBatches.Add(1)
		tl.joinerDeliveries.Add(int64(1 + len(rest)))
		tl.joinerTuples.Add(int64(tuples))
		tl.joinerBusy.Add(end - recv)
	case roleSink:
		tl.sinkBusy.Add(end - recv)
		if sampled(a.id) {
			c.t.record(kSink, a.id, recv, end, ph)
		}
	}
}
