package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bistream/internal/broker"
	"bistream/internal/dedup"
	"bistream/internal/joiner"
	"bistream/internal/metrics"
	"bistream/internal/protocol"
	"bistream/internal/router"
	"bistream/internal/topo"
	"bistream/internal/tuple"
	"bistream/internal/window"
)

// isoTuples is how many of the workload's tuples each isolated call is
// timed over.
const isoTuples = 20000

// cost is a per-operation time and allocation count.
type cost struct{ ns, allocs float64 }

// timeOps runs op n times and returns its mean cost.
func timeOps(n int, op func(i int)) cost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := nanotime()
	for i := 0; i < n; i++ {
		op(i)
	}
	d := nanotime() - t0
	runtime.ReadMemStats(&m1)
	return cost{ns: float64(d) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// isolatedCalls times each layer's public entry point directly on the
// workload's generated tuples, outside the engine: the cost a layer
// has with no queueing, contention or scheduling around it. The names
// match the layers' in-engine self times.
func isolatedCalls(w workload, seed uint64) (map[string]metric, error) {
	s := newStream(w, seed)
	ph := w.phases(0)
	// A window's worth of tuples first (untimed where a layer keeps
	// state), then isoTuples timed ones.
	n := ph.warm + isoTuples
	tuples := make([]*tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = s.tuple(i)
	}
	timed := tuples[ph.warm:]
	out := map[string]metric{}
	put := func(name string, c cost) {
		out["iso."+name+"_ns"] = metric{c.ns, "ns"}
		out["iso."+name+"_allocs"] = metric{c.allocs, "count"}
	}

	// router.Core.Route with the engine's 2+2 layout.
	rc, err := newRouterCore(w)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	put("route", timeOps(len(timed), func(i int) { _, _ = rc.Route(timed[i], now) }))

	// The router's output for every tuple, marshaled as the broker
	// carries it.
	type msg struct {
		exchange, key string
		body          []byte
		env           protocol.Envelope
	}
	var msgs []msg
	for _, t := range tuples {
		dests, err := rc.Route(t, now)
		if err != nil {
			return nil, err
		}
		for _, d := range dests {
			msgs = append(msgs, msg{d.Exchange, d.Key, d.Env.Marshal(), d.Env})
		}
	}
	var timedMsgs []msg
	for _, m := range msgs {
		if m.env.Tuple.Seq > uint64(ph.warm) {
			timedMsgs = append(timedMsgs, m)
		}
	}

	// broker.Broker.PublishContext into the engine's topology.
	b, err := engineTopology()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var pubErr error
	put("publish", timeOps(len(timedMsgs), func(i int) {
		m := timedMsgs[i]
		if err := b.PublishContext(ctx, m.exchange, m.key, nil, m.body); err != nil {
			pubErr = err
		}
	}))
	if err := b.Close(); err != nil {
		return nil, err
	}
	if pubErr != nil {
		return nil, fmt.Errorf("publish: %w", pubErr)
	}

	// protocol.DecodeEnvelope through a tuple.Decoder.
	var dec tuple.Decoder
	var decErr error
	put("decode", timeOps(len(timedMsgs), func(i int) {
		if _, err := protocol.DecodeEnvelope(timedMsgs[i].body, &dec); err != nil {
			decErr = err
		}
	}))
	if decErr != nil {
		return nil, fmt.Errorf("decode: %w", decErr)
	}

	// What joiner R/0 receives: its store copies and the join copies of
	// S, each with the stream (source) it arrives on.
	member := topo.MemberKey(0)
	var envs []protocol.Envelope
	var srcs []protocol.Source
	for _, m := range msgs {
		switch {
		case m.exchange == topo.StoreExchange(tuple.R) && m.key == member:
			envs, srcs = append(envs, m.env), append(srcs, protocol.SourceStore)
		case m.exchange == topo.JoinExchange(tuple.S) && m.key == member:
			envs, srcs = append(envs, m.env), append(srcs, protocol.SourceJoin)
		}
	}
	firstTimed := len(envs)
	for k, e := range envs {
		if e.Tuple.Seq > uint64(ph.warm) {
			firstTimed = k
			break
		}
	}

	// protocol.Reorderer: AddInto per envelope, Punctuate on both
	// sources every punctEvery envelopes.
	const punctEvery = 64
	ro := protocol.NewReorderer()
	ro.AddRouter(rc.ID(), protocol.SourceStore)
	ro.AddRouter(rc.ID(), protocol.SourceJoin)
	timedEnvs, timedSrcs := envs[firstTimed:], srcs[firstTimed:]
	var buf []protocol.Envelope
	put("reorder", timeOps(len(timedEnvs), func(i int) {
		buf = ro.AddInto(timedEnvs[i], timedSrcs[i], buf[:0])
		if i%punctEvery == punctEvery-1 || i == len(timedEnvs)-1 {
			c := timedEnvs[i].Counter
			buf = ro.Punctuate(rc.ID(), protocol.SourceStore, c)
			buf = ro.Punctuate(rc.ID(), protocol.SourceJoin, c)
		}
	}))

	// joiner.Core.HandleBatch over member R/0's traffic, in batches per
	// source each closed by a punctuation; the window is filled untimed.
	jc, err := joiner.NewCore(joiner.Config{
		ID: 0, Rel: tuple.R, Pred: w.predicate(), Window: window.Sliding{Span: w.window},
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	jc.AddRouter(rc.ID())
	emit := func(tuple.JoinResult) {}
	const batch = 256
	batches := func(lo, hi int, fn func(envs []protocol.Envelope, src protocol.Source)) {
		for k := lo; k < hi; k += batch {
			end := min(k+batch, hi)
			for _, src := range []protocol.Source{protocol.SourceStore, protocol.SourceJoin} {
				var part []protocol.Envelope
				for j := k; j < end; j++ {
					if srcs[j] == src {
						part = append(part, envs[j])
					}
				}
				part = append(part, protocol.Envelope{Kind: protocol.KindPunctuation, RouterID: rc.ID(), Counter: envs[end-1].Counter})
				fn(part, src)
			}
		}
	}
	batches(0, firstTimed, func(p []protocol.Envelope, src protocol.Source) { jc.HandleBatch(p, src, emit) })
	var parts [][]protocol.Envelope
	var partSrcs []protocol.Source
	batches(firstTimed, len(envs), func(p []protocol.Envelope, src protocol.Source) {
		parts, partSrcs = append(parts, p), append(partSrcs, src)
	})
	c := timeOps(len(parts), func(i int) { jc.HandleBatch(parts[i], partSrcs[i], emit) })
	perTuple := float64(len(parts)) / float64(max(len(envs)-firstTimed, 1))
	put("handle_batch", cost{c.ns * perTuple, c.allocs * perTuple})

	// dedup.Set.SeenOrAdd on (relation, seq) keys, as the joiners use it.
	set := dedup.New(0)
	put("dedup", timeOps(len(timed), func(i int) {
		set.SeenOrAdd(dedup.Key{uint64(timed[i].Rel), timed[i].Seq})
	}))
	return out, nil
}

// newRouterCore builds a router core with the engine's layout: two
// members per relation, hash-partitioned for equi, broadcast for band.
func newRouterCore(w workload) (*router.Core, error) {
	win := window.Sliding{Span: w.window}
	rc, err := router.NewCore(router.Config{ID: 0, Pred: w.predicate(), Window: win, Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, err
	}
	subgroups := 2
	if w.band {
		subgroups = 1
	}
	nowTS := time.Now().UnixMilli()
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		if err := rc.SetLayout(rel, []int32{0, 1}, subgroups, nowTS); err != nil {
			return nil, err
		}
	}
	return rc, nil
}

// engineTopology declares, on a fresh in-process broker, what a running
// 2+2 engine declares: the shared exchanges, the entry queue, each
// member's store and join queues with their bindings, and the result
// sink.
func engineTopology() (*broker.Broker, error) {
	b := broker.New(nil)
	if err := topo.Declare(b); err != nil {
		return nil, err
	}
	type bind struct{ queue, exchange, key string }
	var binds []bind
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		for id := int32(0); id < 2; id++ {
			sq, jq := topo.StoreQueue(rel, id), topo.JoinQueue(rel, id)
			se, je := topo.StoreExchange(rel), topo.JoinExchange(rel.Opposite())
			binds = append(binds,
				bind{sq, se, topo.MemberKey(id)}, bind{sq, se, topo.PunctKey},
				bind{jq, je, topo.MemberKey(id)}, bind{jq, je, topo.PunctKey})
		}
	}
	binds = append(binds, bind{topo.ResultExchange + ".sink", topo.ResultExchange, topo.ResultKey})
	for _, bd := range binds {
		if err := b.DeclareQueue(bd.queue, broker.QueueOptions{Durable: true}); err != nil {
			return nil, err
		}
		if err := b.Bind(bd.queue, bd.exchange, bd.key); err != nil {
			return nil, err
		}
	}
	return b, nil
}
