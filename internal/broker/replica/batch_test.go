package replica

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/metrics"
	"bistream/internal/wire"
)

// wholeFrame appends f to out as one complete length-prefixed frame.
func wholeFrame(t *testing.T, out []byte, f frame) []byte {
	t.Helper()
	out, start := wire.StartFrame(out)
	out = appendFrame(out, f)
	if err := wire.EndFrame(out, start); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFollowerAcksBurstAheadOfHeartbeat: a fake leader sends a record
// burst followed by a heartbeat in one write, so the follower finds both
// in the same read buffer. The follower must apply the burst, flush it,
// and send one ack covering its last LSN — the heartbeat behind it must
// not strand the ack.
func TestFollowerAcksBurstAheadOfHeartbeat(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peers := map[string]string{"f": freeAddr(t), "lead": ln.Addr().String()}
	cfg := fastConfig(t, "f", t.TempDir(), peers, 2, 1)
	cfg.LeaseTimeout = 2 * time.Second
	cfg.ElectionTimeout = 10 * time.Second // stay a follower throughout
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Kill)

	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	payload, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if join, err := decodeFrame(payload); err != nil || join.Op != rJoin {
		t.Fatalf("first frame = %+v, %v; want rJoin", join, err)
	}

	const last = 5
	out := wholeFrame(t, nil, frame{Op: rWelcome, Term: 1, ID: "lead"})
	out = wholeFrame(t, out, frame{Op: rSnapEnd, LSN: 0})
	for lsn := uint64(1); lsn <= last; lsn++ {
		out = wholeFrame(t, out, frame{Op: rRecord, LSN: lsn, Payload: []byte(fmt.Sprintf("meta-%d", lsn))})
	}
	out = wholeFrame(t, out, frame{Op: rHeart, Term: 1, LSN: last})
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}

	payload, err = wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("no ack after the burst: %v", err)
	}
	ack, err := decodeFrame(payload)
	if err != nil || ack.Op != rAck {
		t.Fatalf("reply = %+v, %v; want rAck", ack, err)
	}
	if ack.LSN != last {
		t.Fatalf("first ack covers lsn %d; want the burst's last lsn %d in one cumulative ack", ack.LSN, last)
	}
	if got := n.LastLSN(); got != last {
		t.Fatalf("follower applied through lsn %d; want %d", got, last)
	}
	if v, _ := reg.Value("replica.records_applied"); v != last {
		t.Errorf("replica.records_applied = %v; want %d", v, last)
	}
	// The ack is counted once its write returns; give that a moment.
	deadline := time.Now().Add(2 * time.Second)
	for v, _ := reg.Value("replica.acks_sent"); v == 0 && time.Now().Before(deadline); v, _ = reg.Value("replica.acks_sent") {
		time.Sleep(time.Millisecond)
	}
	if v, _ := reg.Value("replica.acks_sent"); v != 1 {
		t.Errorf("replica.acks_sent = %v; want 1 for one burst", v)
	}
}

// TestCumulativeAckReleasesWaiters: one ack for LSN k releases every
// publish waiting in commitGate on an LSN at or below k, and only those.
func TestCumulativeAckReleasesWaiters(t *testing.T) {
	n, err := NewNode(Config{
		ID: "l", Dir: t.TempDir(), Quorum: 2, AckTimeout: 10 * time.Second,
		Peers: map[string]string{"l": "127.0.0.1:1", "f": "127.0.0.1:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := &followerState{id: "f"}
	n.mu.Lock()
	n.roleVal = Leader
	n.followers[fs] = struct{}{}
	n.mu.Unlock()
	leaderEnd, followerEnd := net.Pipe()
	defer followerEnd.Close()
	acksDone := make(chan struct{})
	go func() {
		defer close(acksDone)
		n.readAcks(leaderEnd, fs)
	}()

	type result struct {
		lsn uint64
		err error
	}
	results := make(chan result, 8)
	for _, lsn := range []uint64{1, 2, 3, 4, 5, 9} {
		go func(lsn uint64) {
			results <- result{lsn, n.commitGate(context.Background(), lsn)}
		}(lsn)
	}
	select {
	case r := <-results:
		t.Fatalf("lsn %d passed the gate before any ack (err %v)", r.lsn, r.err)
	case <-time.After(50 * time.Millisecond):
	}

	if err := wire.WriteFrame(followerEnd, encodeFrame(frame{Op: rAck, LSN: 5})); err != nil {
		t.Fatal(err)
	}
	released := map[uint64]bool{}
	for len(released) < 5 {
		select {
		case r := <-results:
			if r.err != nil || r.lsn > 5 {
				t.Fatalf("lsn %d left the gate with %v after ack 5", r.lsn, r.err)
			}
			released[r.lsn] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("ack 5 released only %v", released)
		}
	}
	select {
	case r := <-results:
		t.Fatalf("lsn %d passed the gate on ack 5 (err %v)", r.lsn, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	n.Kill()
	if r := <-results; r.lsn != 9 || r.err == nil {
		t.Fatalf("after Kill the lsn-9 waiter returned %+v; want an error", r)
	}
	followerEnd.Close()
	<-acksDone
}

// TestAppendBurstDrainsWithoutWaiting: a burst takes every record
// already queued, up to maxStreamBurst, and reports a closed tap.
func TestAppendBurstDrainsWithoutWaiting(t *testing.T) {
	tap := make(chan broker.ReplRecord, maxStreamBurst+50)
	for i := 2; i <= maxStreamBurst+50; i++ {
		tap <- broker.ReplRecord{LSN: uint64(i), Topic: "q", Payload: []byte("p")}
	}
	out, n, open, err := appendBurst(nil, broker.ReplRecord{LSN: 1, Payload: []byte("p")}, tap)
	if err != nil || !open || n != maxStreamBurst {
		t.Fatalf("first burst: %d records, open=%v, err=%v; want %d, open", n, open, err, maxStreamBurst)
	}
	br := bufio.NewReader(bytes.NewReader(out))
	for want := uint64(1); want <= maxStreamBurst; want++ {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if f, err := decodeFrame(payload); err != nil || f.Op != rRecord || f.LSN != want {
			t.Fatalf("frame %d = %+v, %v", want, f, err)
		}
	}
	close(tap)
	_, n, open, err = appendBurst(nil, <-tap, tap)
	if err != nil || open || n != 50 {
		t.Fatalf("second burst: %d records, open=%v, err=%v; want the 50 left and a closed tap", n, open, err)
	}
}

// TestFollowerOverrunResyncs: with a one-record tap, a follower cannot
// keep up with concurrent publishers and overruns its stream. The leader
// must drop the session, and the follower must come back through a
// fresh snapshot and converge on the leader's log.
func TestFollowerOverrunResyncs(t *testing.T) {
	regs := map[string]*metrics.Registry{}
	nodes := startGroup(t, []string{"n1", "n2"}, 1, func(cfg *Config) {
		if cfg.ID == "n2" {
			cfg.ElectionTimeout = 10 * time.Second // n1 leads
		}
		regs[cfg.ID] = metrics.NewRegistry()
		cfg.Metrics = regs[cfg.ID]
	}, func(n *Node) { n.tapBuffer = 1 })
	leader, err := WaitLeader(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if leader.ID() != "n1" {
		t.Fatalf("leader %s; want n1", leader.ID())
	}
	b := leader.Broker()
	if err := b.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", broker.QueueOptions{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, leader, nodes[1])

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := b.Publish("ex", "k", nil, []byte(fmt.Sprintf("p%d-%d", p, i))); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	waitCaughtUp(t, leader, nodes[1])
	if v, _ := regs["n2"].Value("replica.resyncs"); v < 2 {
		t.Fatalf("replica.resyncs = %v; want a second snapshot after the overrun", v)
	}
}

// startGroup starts one node per id at the given quorum, with
// fastConfig timings adjusted by configure and each node adjusted by
// prepare before Start. Replication ports are reserved before the nodes
// bind them, so a start that loses a port in between is retried on
// fresh ports.
func startGroup(t *testing.T, ids []string, quorum int, configure func(*Config), prepare func(*Node)) []*Node {
	t.Helper()
	for attempt := 1; ; attempt++ {
		peers := make(map[string]string, len(ids))
		for _, id := range ids {
			peers[id] = freeAddr(t)
		}
		var nodes []*Node
		var err error
		for i, id := range ids {
			cfg := fastConfig(t, id, t.TempDir(), peers, quorum, int64(i+1))
			configure(&cfg)
			var n *Node
			if n, err = NewNode(cfg); err != nil {
				t.Fatal(err)
			}
			if prepare != nil {
				prepare(n)
			}
			if err = n.Start(); err != nil {
				break
			}
			nodes = append(nodes, n)
		}
		if err == nil {
			for _, n := range nodes {
				t.Cleanup(n.Kill)
			}
			return nodes
		}
		for _, n := range nodes {
			n.Kill()
		}
		if attempt == 5 {
			t.Fatal(err)
		}
	}
}

// waitCaughtUp waits for the follower to hold the leader's last LSN.
func waitCaughtUp(t *testing.T, leader, follower *Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for follower.LastLSN() < leader.LastLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("follower %s stuck at lsn %d, leader at %d", follower.ID(), follower.LastLSN(), leader.LastLSN())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamCountersShowBatching: the leader's socket writes and the
// followers' acks are counted beside the records they carry, and
// neither can outnumber its records.
func TestStreamCountersShowBatching(t *testing.T) {
	regs := map[string]*metrics.Registry{}
	nodes := startGroup(t, []string{"n1", "n2", "n3"}, 2, func(cfg *Config) {
		regs[cfg.ID] = metrics.NewRegistry()
		cfg.Metrics = regs[cfg.ID]
	}, nil)
	leader, err := WaitLeader(nodes, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b := leader.Broker()
	if err := b.DeclareExchange("ex", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", broker.QueueOptions{Durable: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "ex", "k"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := b.Publish("ex", "k", nil, []byte(fmt.Sprintf("p%d-%d", p, i))); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, n := range alive(nodes, leader) {
		waitCaughtUp(t, leader, n)
	}
	streamed, _ := regs[leader.ID()].Value("replica.records_streamed")
	writes, _ := regs[leader.ID()].Value("replica.stream_writes")
	if writes <= 0 || writes > streamed {
		t.Errorf("leader: %v stream writes for %v records", writes, streamed)
	}
	for _, n := range alive(nodes, leader) {
		applied, _ := regs[n.ID()].Value("replica.records_applied")
		acks, _ := regs[n.ID()].Value("replica.acks_sent")
		if acks <= 0 || acks > applied+1 { // +1: the snapshot-boundary ack
			t.Errorf("follower %s: %v acks for %v applied records", n.ID(), acks, applied)
		}
	}
}
