package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"bistream"
	"bistream/internal/broker"
	"bistream/internal/broker/replica"
	"bistream/internal/wire"
)

// deployment is one engine together with the broker it runs over.
type deployment struct {
	eng    *bistream.Engine
	client broker.Client   // what the engine was given; nil = its own broker
	local  *broker.Broker  // in-process broker we own (traced local runs, wire server)
	remote *wire.Client    // wire/quorum client
	srv    *wire.Server    // equi-wire's server
	nodes  []*replica.Node // equi-quorum's group
	dir    string          // quorum journals
	hold   time.Duration   // equi-quorum's settle wait, left out of setup_s
}

// deployOptions are the knobs that differ between a workload's runs.
type deployOptions struct {
	routers, rJoiners, sJoiners int
	shards                      int // 0 = engine default (GOMAXPROCS)
	traceSample                 int // -1 disables the engine's stage tracing
	tracer                      *tracer
	tmpRoot                     string // parent of quorum journal dirs
}

// deploy brings up the workload's broker and engine and starts it. The
// caller times it: set-up runs from here to the first result.
func deploy(w workload, opt deployOptions, onResult func(bistream.JoinResult)) (*deployment, error) {
	d := &deployment{}
	var inner broker.Client
	switch w.transport {
	case inProcess:
		if opt.tracer != nil {
			// The engine's private broker cannot be wrapped; give it an
			// identical in-process broker through the tracing wrapper.
			d.local = broker.New(nil)
			inner = d.local
		}
	case overWire:
		d.local = broker.New(nil)
		d.srv = wire.NewServer(d.local, nil)
		addr, err := d.srv.Listen("127.0.0.1:0")
		if err != nil {
			d.teardown()
			return nil, fmt.Errorf("wire listen: %w", err)
		}
		c, err := wire.Dial(addr.String())
		if err != nil {
			d.teardown()
			return nil, fmt.Errorf("wire dial: %w", err)
		}
		d.remote = c
		inner = c
	case quorum:
		c, err := d.startGroup(opt.tmpRoot)
		if err != nil {
			d.teardown()
			return nil, err
		}
		d.remote = c
		inner = c
	}
	if inner != nil {
		d.client = inner
		if opt.tracer != nil {
			d.client = opt.tracer.wrapClient(inner)
		}
	}
	eng, err := bistream.New(bistream.Config{
		Predicate:   w.predicate(),
		Window:      w.window,
		Routers:     opt.routers,
		RJoiners:    opt.rJoiners,
		SJoiners:    opt.sJoiners,
		Shards:      opt.shards,
		Broker:      d.client,
		OnResult:    onResult,
		TraceSample: opt.traceSample,
	})
	if err != nil {
		d.teardown()
		return nil, err
	}
	if err := eng.Start(); err != nil {
		_ = eng.Stop()
		d.teardown()
		return nil, err
	}
	d.eng = eng
	return d, nil
}

// startGroup brings up a 3-node replica group at quorum 2 with journals
// under tmpRoot, waits for its election and then for the group to
// settle (d.hold), and connects a reconnecting client to the leader.
// Replication ports are reserved before the nodes bind them, so another
// socket can take one in between; such a start is retried on fresh
// ports.
func (d *deployment) startGroup(tmpRoot string) (*wire.Client, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "quorum-")
	if err != nil {
		return nil, err
	}
	d.dir = dir
	const attempts = 5
	for a := 1; ; a++ {
		err := d.startNodes(filepath.Join(dir, strconv.Itoa(a)))
		if err == nil {
			break
		}
		for _, n := range d.nodes {
			n.Kill()
		}
		d.nodes = nil
		if a == attempts || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, err
		}
	}
	if _, err := replica.WaitLeader(d.nodes, 20*time.Second); err != nil {
		return nil, err
	}
	h0 := time.Now()
	leader, err := waitSettled(d.nodes, 20*time.Second)
	d.hold = time.Since(h0)
	if err != nil {
		return nil, err
	}
	addrs := []string{leader.ClientAddr().String()}
	for _, n := range d.nodes {
		if n != leader {
			addrs = append(addrs, n.ClientAddr().String())
		}
	}
	return wire.Connect(wire.Config{
		Addrs:          addrs,
		Reconnect:      true,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	})
}

// startNodes starts the group's three nodes with journals under dir.
func (d *deployment) startNodes(dir string) error {
	ids := []string{"n1", "n2", "n3"}
	peers := make(map[string]string, len(ids))
	for _, id := range ids {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		peers[id] = addr
	}
	for i, id := range ids {
		n, err := replica.NewNode(replica.Config{
			ID:         id,
			Dir:        filepath.Join(dir, id),
			ClientAddr: "127.0.0.1:0",
			ReplAddr:   peers[id],
			Peers:      peers,
			Quorum:     2,
			Seed:       int64(i + 1),
		})
		if err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
		d.nodes = append(d.nodes, n)
	}
	return nil
}

// settleTime is how long a fresh group must keep one leader, with every
// node on its term, before the client connects.
const settleTime = 100 * time.Millisecond

// waitSettled waits until exactly one node leads and every node shares
// its term, continuously for settleTime. WaitLeader alone can return a
// leader that a second, concurrent candidacy deposes a moment later,
// and the engine's ingests then fail until its client has reconnected
// (README.md, Defects).
func waitSettled(nodes []*replica.Node, timeout time.Duration) (*replica.Node, error) {
	deadline := time.Now().Add(timeout)
	var leader *replica.Node
	var since time.Time
	for time.Now().Before(deadline) {
		var cur *replica.Node
		leaders, term, agree := 0, nodes[0].Term(), true
		for _, n := range nodes {
			if n.IsLeader() {
				leaders++
				cur = n
			}
			agree = agree && n.Term() == term
		}
		switch {
		case leaders != 1 || !agree:
			leader = nil
		case cur != leader:
			leader, since = cur, time.Now()
		case time.Since(since) >= settleTime:
			return leader, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("replica group did not settle on a leader within %v", timeout)
}

// freeAddr reserves a loopback port for a replica's replication
// listener; the group needs every peer address before any node starts.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// teardown stops the engine and everything under it, and removes the
// quorum journals. Safe on a partly built deployment.
func (d *deployment) teardown() error {
	var errs []error
	if d.eng != nil {
		errs = append(errs, d.eng.Stop())
	}
	if d.remote != nil {
		errs = append(errs, d.remote.Close())
	}
	if d.srv != nil {
		errs = append(errs, d.srv.Close())
	}
	if d.local != nil {
		errs = append(errs, d.local.Close())
	}
	for _, n := range d.nodes {
		n.Kill()
	}
	if d.dir != "" {
		errs = append(errs, os.RemoveAll(d.dir))
	}
	return errors.Join(errs...)
}
