package main

import (
	"context"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"bistream"
	"bistream/internal/metrics"
	"bistream/internal/topo"
	"bistream/internal/tuple"
)

// passConfig describes one run of a workload's stream through a fresh
// engine.
type passConfig struct {
	w      workload
	seed   uint64
	ph     phases
	setups int
	deploy deployOptions
}

// passResult is what one pass measured.
type passResult struct {
	setupS       []float64 // per set-up, seconds
	peakTuples   int
	peakNS       int64     // summed over the peak slices: first ingest → last result delivered
	cpuNS        int64     // process user+sys CPU over the peak slices
	mallocs      uint64    // heap allocations over the peak slices
	sliceTPS     []float64 // per peak slice, tuples/s
	sliceCPU     []float64 // per peak slice, CPU µs per tuple
	liveHeap     float64   // mean live heap after the paced slices' GC cycles, bytes
	latMS        []float64 // paced: later parent's due time → OnResult
	lateMS       []float64 // paced: how late the generator sent each tuple
	attempted    int       // tuples offered to IngestContext
	ingestErrors int
	resultDedup  int64 // duplicate results the engine's sink dropped before OnResult
	verdict      verdict

	// Traced passes only.
	snapPaced                 bistream.Snapshot // after the first paced slice
	peakR, peakS              []memberDelta     // per joiner member, summed over the peak slices
	backlogMax                int
	redelivered, deadLettered int64
	stage                     map[string]float64 // paced-slice mean of each stage.* histogram, ms
}

// failed counts ingest errors, missing and duplicate pairs at OnResult,
// and the duplicates the engine's sink dropped before OnResult.
func (r *passResult) failed() int {
	return r.ingestErrors + r.verdict.failed() + int(r.resultDedup)
}

// attempts counts tuples offered, reference pairs expected, and
// duplicate results dropped by the sink (each an extra failed result).
func (r *passResult) attempts() int {
	return r.attempted + r.verdict.expected + int(r.resultDedup)
}

// memberDelta is what one joiner member did over the peak slices.
type memberDelta struct{ probed, comparisons, results, stored int64 }

// addDeltas adds each member's change between two snapshots of one
// group to acc.
func addDeltas(acc []memberDelta, before, after []bistream.MemberView) []memberDelta {
	for len(acc) < len(after) {
		acc = append(acc, memberDelta{})
	}
	for i := range after {
		acc[i].probed += after[i].Probed - before[i].Probed
		acc[i].comparisons += after[i].Comparisons - before[i].Comparisons
		acc[i].results += after[i].Results - before[i].Results
		acc[i].stored += after[i].Stored - before[i].Stored
	}
	return acc
}

// pass times cfg.setups set-ups, warms one engine up, runs the paced
// and peak slices in turn, then checks every result against the
// reference join.
func pass(cfg passConfig) (*passResult, error) {
	w := cfg.w
	s := newStream(w, cfg.seed)
	ph := cfg.ph
	total := ph.total()
	rec, err := newRecorder(3*total+1<<16, 2*ph.paced+1<<16, w.rate)
	if err != nil {
		return nil, err
	}
	defer rec.free()
	late, err := newOffHeap(ph.paced)
	if err != nil {
		return nil, err
	}
	defer late.free()

	res := &passResult{attempted: total, peakTuples: ph.peak}
	tr := cfg.deploy.tracer
	ctx := context.Background()
	var d *deployment
	ingested := 0 // by the current deployment
	ingest := func(i int) {
		t := s.tuple(i)
		var start int64
		if tr != nil {
			start = nanotime()
		}
		err := d.eng.IngestContext(ctx, t)
		if tr != nil {
			tr.ingest(t.Seq, start, nanotime())
		}
		if err != nil {
			res.ingestErrors++
		} else {
			ingested++
		}
	}
	// flatOut ingests tuples [lo, hi) as fast as the engine takes them,
	// except that once backlogCap tuples are unrouted it sleeps until the
	// routers have taken half of them: the slice measures sustained
	// throughput rather than the drain of an unbounded entry queue, and
	// the generator wakes about once a millisecond while it waits.
	flatOut := func(lo, hi int) {
		var routed []*metrics.Counter
		for id := 0; id < cfg.deploy.routers; id++ {
			routed = append(routed, d.eng.Metrics().Counter(fmt.Sprintf("router.%d.routed", id)))
		}
		for i := lo; i < hi; i++ {
			if i%64 == 0 && ingested-int(sumCounters(routed)) >= backlogCap {
				for ingested-int(sumCounters(routed)) > backlogCap/2 {
					time.Sleep(time.Millisecond)
				}
			}
			ingest(i)
		}
	}
	defer func() {
		if d != nil {
			_ = d.teardown()
		}
	}()

	// Set-up, timed cfg.setups times: New (and the broker, wire server
	// or replica group under it) through the first warm-up result at the
	// sink, less the replica group's settle wait. Every set-up but the
	// last is torn down again.
	next := 0
	for k := 0; k < cfg.setups; k++ {
		rec.reset()
		ingested = 0
		t0 := nanotime()
		d, err = deploy(w, cfg.deploy, rec.onResult)
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		i := 0
		deadline := time.Now().Add(60 * time.Second)
		for rec.first.Load() == 0 {
			switch {
			case time.Now().After(deadline):
				return nil, fmt.Errorf("set-up %d: no result after %d tuples (%d ingest errors)", k, i, res.ingestErrors)
			case i < ph.warm:
				ingest(i)
				i++
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		res.setupS = append(res.setupS, float64(rec.first.Load()-t0-int64(d.hold))/1e9)
		if k < cfg.setups-1 {
			// Drain first: Stop halts the routers before it waits for
			// quiet, so tuples still queued would hold it for its timeout.
			if err := settle(d, rec); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", k, err)
			}
			if err := d.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			d = nil
		}
		next = i
	}

	// Warm-up: fill the window flat out, then drain.
	flatOut(next, ph.warm)
	if err := settle(d, rec); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Paced: open loop at w.rate, each tuple timed from when it was due.
	period := float64(time.Second) / float64(w.rate)
	var heapSum float64
	var heapN, nLate int
	stageSum := map[string]histMark{}
	paced := func(lo, hi int, first bool) error {
		runtime.GC()
		var stopSampler func() int
		var stage0 map[string]histMark
		stopHeap := sampleLiveHeap()
		if tr != nil {
			tr.setPhase(phasePaced)
			stopSampler = sampleBacklog(d)
			stage0 = stageMarks(d)
		}
		start := nanotime() + int64(time.Millisecond)
		rec.setPaced(lo, hi, start)
		for i := lo; i < hi; {
			due := start + int64(float64(i-lo)*period)
			now := nanotime()
			if now < due {
				time.Sleep(time.Duration(due - now))
				continue
			}
			late.v[nLate] = now - due
			nLate++
			ingest(i)
			i++
		}
		if err := settle(d, rec); err != nil {
			return err
		}
		sum, n := stopHeap()
		heapSum += sum
		heapN += n
		if tr != nil {
			res.backlogMax = max(res.backlogMax, stopSampler())
			if first {
				res.snapPaced = d.eng.Snapshot()
			}
			for name, m1 := range stageMarks(d) {
				m0, acc := stage0[name], stageSum[name]
				stageSum[name] = histMark{acc.count + m1.count - m0.count, acc.sum + m1.sum - m0.sum}
			}
		}
		return nil
	}
	// Peak: tuples flat out, until everything is delivered.
	var ms runtime.MemStats
	peak := func(lo, hi int) error {
		runtime.GC()
		var snap0 bistream.Snapshot
		if tr != nil {
			tr.setPhase(phasePeak)
			snap0 = d.eng.Snapshot()
		}
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		cpu0 := cpuNanos()
		t0 := nanotime()
		flatOut(lo, hi)
		if err := settle(d, rec); err != nil {
			return err
		}
		ns := rec.last.Load() - t0
		cpu := cpuNanos() - cpu0
		runtime.ReadMemStats(&ms)
		res.mallocs += ms.Mallocs - mallocs0
		res.peakNS += ns
		res.cpuNS += cpu
		n := float64(hi - lo)
		res.sliceTPS = append(res.sliceTPS, n/(float64(ns)/1e9))
		res.sliceCPU = append(res.sliceCPU, float64(cpu)/1e3/n)
		if tr != nil {
			snap1 := d.eng.Snapshot()
			res.peakR = addDeltas(res.peakR, snap0.RJoiners, snap1.RJoiners)
			res.peakS = addDeltas(res.peakS, snap0.SJoiners, snap1.SJoiners)
		}
		return nil
	}
	// The slices alternate, so paced and peak figures each sample the
	// whole run rather than one stretch of a shared host's drifting
	// speed. Each slice starts from a collected heap, so its GC work
	// does not depend on where the previous slice left the collector.
	at := ph.warm
	for k := 0; k < ph.slices; k++ {
		if n := share(ph.paced, k, ph.slices); n > 0 {
			if err := paced(at, at+n, k == 0); err != nil {
				return nil, fmt.Errorf("paced slice %d: %w", k, err)
			}
			at += n
		}
		if n := share(ph.peak, k, ph.slices); n > 0 {
			if err := peak(at, at+n); err != nil {
				return nil, fmt.Errorf("peak slice %d: %w", k, err)
			}
			at += n
		}
	}
	if heapN == 0 {
		runtime.GC()
		heapSum, heapN = liveHeapNow(), 1
	}
	res.liveHeap = heapSum / float64(heapN)
	res.resultDedup = d.eng.Metrics().Counter("engine.result_dedup").Value()
	if tr != nil {
		tr.setPhase(phaseDrain)
		res.stage = map[string]float64{}
		for name, m := range stageSum {
			res.stage[name] = float64(m.sum) / float64(max(m.count, 1)) / 1e6
		}
		res.collectQueueCounters(d)
	}
	if err := d.teardown(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	d = nil

	res.latMS = rec.latencies()
	res.lateMS = make([]float64, nLate)
	for i := range res.lateMS {
		res.lateMS[i] = float64(late.v[i]) / 1e6
	}
	// Check after timing stops, so the reference join never competes
	// with the engine.
	got := rec.pairsCopy()
	res.verdict = compare(expectedPairs(s, total, w.window.Milliseconds()), got)
	res.verdict.duplicates += int(rec.lost.Load())
	return res, nil
}

// share is the size of slice k when n tuples are cut into slices.
func share(n, k, slices int) int { return n*(k+1)/slices - n*k/slices }

// backlogCap bounds the tuples ingested but not yet routed during
// warm-up and the peak slices: far above what the routers hold in flight (64 each),
// so they never starve.
const backlogCap = 8192

func sumCounters(cs []*metrics.Counter) int64 {
	var n int64
	for _, c := range cs {
		n += c.Value()
	}
	return n
}

// settle waits until the engine has drained and every result it counted
// has also returned from OnResult (the engine counts a result just
// before handing it to the callback).
func settle(d *deployment, rec *recorder) error {
	if err := d.eng.Quiesce(90 * time.Second); err != nil {
		return err
	}
	results := d.eng.Metrics().Counter("engine.results")
	deadline := time.Now().Add(10 * time.Second)
	for rec.count() < results.Value() {
		if time.Now().After(deadline) {
			return fmt.Errorf("sink reported %d results, recorder saw %d", results.Value(), rec.count())
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// sampleLiveHeap watches the runtime's live-heap figure (the bytes still
// reachable at the end of each GC cycle) until the returned stop
// function is called, which returns the sum of the readings and their
// number, one per GC cycle seen. A single reading would land at a
// random point of the joiners' dedup filter rotation, which swings the
// live heap by ~15% on equi-local.
func sampleLiveHeap() (stop func() (float64, int)) {
	samples := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(samples)
	lastCycle := samples[0].Value.Uint64()
	quit := make(chan struct{})
	type total struct {
		sum float64
		n   int
	}
	done := make(chan total)
	go func() {
		var t total
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- t
				return
			case <-tick.C:
				rtmetrics.Read(samples)
				if c := samples[0].Value.Uint64(); c != lastCycle {
					lastCycle = c
					t.sum += liveHeapNow()
					t.n++
				}
			}
		}
	}()
	return func() (float64, int) {
		close(quit)
		t := <-done
		return t.sum, t.n
	}
}

// liveHeapNow is the live heap the last GC cycle left, in bytes.
func liveHeapNow() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// cpuNanos is the process's user+sys CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sampleBacklog polls the entry queue's ready count every millisecond
// until the returned stop function is called; stop returns the maximum
// seen.
func sampleBacklog(d *deployment) func() int {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		peak := 0
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
				if st, err := d.client.QueueStats(topo.EntryQueue); err == nil && st.Ready > peak {
					peak = st.Ready
				}
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}

// histMark is a histogram's count and sum at one instant; two marks
// give the mean of the observations between them.
type histMark struct{ count, sum int64 }

// stageMarks marks the engine's own sampled stage histograms.
func stageMarks(d *deployment) map[string]histMark {
	reg := d.eng.Metrics()
	out := map[string]histMark{}
	for _, name := range []string{"stage.deliver", "stage.order", "stage.e2e"} {
		h := reg.Histogram(name)
		out[name] = histMark{h.Count(), h.Sum()}
	}
	return out
}

// collectQueueCounters reads, before teardown, the redelivery and
// dead-letter counts a traced pass reports from the broker's queues.
func (r *passResult) collectQueueCounters(d *deployment) {
	queues := []string{topo.EntryQueue, topo.ResultExchange + ".sink"}
	for _, rel := range []tuple.Relation{tuple.R, tuple.S} {
		for _, id := range d.eng.MemberIDs(rel) {
			queues = append(queues, topo.StoreQueue(rel, id), topo.JoinQueue(rel, id))
		}
	}
	for _, q := range queues {
		if st, err := d.client.QueueStats(q); err == nil {
			r.redelivered += st.Redelivered
			r.deadLettered += st.DeadLettered
		}
	}
}
