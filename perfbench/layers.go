package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"

	"bistream"
)

// runTraced measures the per-layer metrics: an untraced pass and a
// traced pass of the same (halved) shape, so the difference in peak_tps
// is the tracing overhead, then the isolated layer calls and the
// single-threaded baseline.
func runTraced(w workload, opts options) (report, error) {
	ph := w.phases(opts.seconds / 2)
	base, err := pass(passConfig{w: w, seed: opts.seed, ph: ph, setups: 1, deploy: engineShape(opts, nil)})
	if err != nil {
		return report{}, fmt.Errorf("untraced pass: %w", err)
	}
	logPass(w, "untraced", base)
	tr := newTracer()
	shape := engineShape(opts, tr)
	shape.traceSample = 0 // the engine's default stage sampling
	traced, err := pass(passConfig{w: w, seed: opts.seed, ph: ph, setups: 1, deploy: shape})
	if err != nil {
		return report{}, fmt.Errorf("traced pass: %w", err)
	}
	logPass(w, "traced", traced)
	path := filepath.Join(opts.spans, fmt.Sprintf("%s-seed%d.csv", w.name, opts.seed))
	if err := tr.writeSpans(path); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	iso, err := isolatedCalls(w, opts.seed)
	if err != nil {
		return report{}, fmt.Errorf("isolated calls: %w", err)
	}
	single, err := singleThreadBaseline(opts)
	if err != nil {
		return report{}, fmt.Errorf("single-threaded baseline: %w", err)
	}
	logPass(baselineJob, "1-cpu", single)

	m := layerMetrics(traced, tr, shape.routers, shape.rJoiners+shape.sJoiners)
	untracedTPS := tps(base)
	m["bench.trace_overhead_frac"] = metric{(untracedTPS - tps(traced)) / untracedTPS, "ratio"}
	m["bench.gen_late_ms.p99"] = metric{quantile(base.lateMS, 0.99), "ms"}
	m["bench.paced_samples"] = metric{float64(len(base.latMS)), "count"}
	m["bench.baseline_1cpu_tps"] = metric{tps(single), "tuples/s"}
	for k, v := range iso {
		m[k] = v
	}
	attempted, failed := 0, 0
	for _, r := range []*passResult{base, traced, single} {
		attempted += r.attempts()
		failed += r.failed()
	}
	m["bench.failed_frac"] = metric{float64(failed) / float64(attempted), "ratio"}
	name, frac := busiestLayer(m)
	fmt.Printf("%s: busiest layer on the blocking path during peak: %s (busy_frac %.3f); %d spans in %s (%d dropped)\n",
		w.name, name, frac, len(tr.snapshot()), path, tr.dropped)
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tps is a pass's peak throughput: the median over its peak slices.
func tps(r *passResult) float64 { return median(r.sliceTPS) }

// busiestLayer picks the busiest of the four serial stages a tuple
// crosses — generator ingest, router, joiner, sink — by busy fraction.
func busiestLayer(m map[string]metric) (string, float64) {
	best, frac := "", -1.0
	for _, k := range []string{"core.ingest_busy_frac", "router.busy_frac", "joiner.busy_frac", "core.sink_busy_frac"} {
		if v := m[k].Value; v > frac {
			best, frac = k, v
		}
	}
	return best, frac
}

// layerMetrics derives the per-layer metrics of a traced pass. Call
// costs, waits and latencies come from the paced slices (the system at
// a third of its peak); counts per tuple, busy fractions and work ratios
// from the peak slices (the system flat out).
func layerMetrics(r *passResult, tr *tracer, routers, members int) map[string]metric {
	peak := &tr.tallies[phasePeak]
	tuples := float64(r.peakTuples)
	busyNS := float64(r.peakNS)
	spans := tr.snapshot()
	durs := func(kind spanKind, scale float64) []float64 {
		var out []float64
		for _, s := range spans {
			if s.kind == kind && s.phase == phasePaced {
				out = append(out, float64(s.end-s.start)/scale)
			}
		}
		return out
	}
	const us, ms = 1e3, 1e6
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// core: Engine.IngestContext and the sink feeding OnResult.
	ingest := durs(kIngest, us)
	put("core.ingest_us.p50", quantile(ingest, 0.50), "us")
	put("core.ingest_us.p99", quantile(ingest, 0.99), "us")
	put("core.sink_us.p50", quantile(durs(kSink, us), 0.50), "us")
	put("core.result_dedup", float64(r.resultDedup), "count")
	put("core.ingest_busy_frac", float64(peak.ingestNanos.Load())/busyNS, "ratio")
	put("core.sink_busy_frac", float64(peak.sinkBusy.Load())/busyNS, "ratio")

	// broker: publish, dispatch and settle, seen through the client.
	var calls, bytes int64
	for k := kPubEntry; k <= kPubResult; k++ {
		calls += peak.pubCalls[k].Load()
		bytes += peak.pubBytes[k].Load()
	}
	put("broker.publish_calls_per_tuple", float64(calls)/tuples, "count")
	put("broker.body_bytes_per_tuple", float64(bytes)/tuples, "bytes")
	for _, k := range []struct {
		kind spanKind
		name string
	}{{kPubEntry, "entry"}, {kPubStore, "store"}, {kPubJoin, "join"}, {kPubPunct, "punct"}, {kPubResult, "result"}} {
		put("broker.publish_us."+k.name, quantile(durs(k.kind, us), 0.50), "us")
	}
	put("broker.settle_calls_per_tuple", float64(peak.settleCalls.Load())/tuples, "count")
	put("broker.settle_us.p50", quantile(durs(kSettle, us), 0.50), "us")
	for _, d := range []struct {
		name  string
		pairs [][2]spanKind
	}{
		{"entry", [][2]spanKind{{kPubEntry, kRecvEntry}}},
		{"member", [][2]spanKind{{kPubStore, kRecvStore}, {kPubJoin, kRecvJoin}}},
		{"result", [][2]spanKind{{kPubResult, kRecvResult}}},
	} {
		dw := dwell(spans, d.pairs)
		put("broker.dwell_ms."+d.name+".p50", quantile(dw, 0.50), "ms")
		put("broker.dwell_ms."+d.name+".p99", quantile(dw, 0.99), "ms")
	}
	put("broker.entry_backlog_max", float64(r.backlogMax), "count")
	put("broker.redelivered", float64(r.redelivered), "count")
	put("broker.dead_lettered", float64(r.deadLettered), "count")

	// router: route, stamp and fan-out.
	handle, self := routerSpans(spans)
	put("router.handle_us.p50", quantile(handle, 0.50), "us")
	put("router.self_us.p50", quantile(self, 0.50), "us")
	put("router.busy_frac", float64(peak.routerBusy.Load())/(busyNS*float64(routers)), "ratio")
	put("router.copies_per_tuple", float64(peak.pubCalls[kPubStore].Load()+peak.pubCalls[kPubJoin].Load())/tuples, "count")
	var nacks int64
	for p := range tr.tallies {
		nacks += tr.tallies[p].routerNacks.Load()
	}
	put("router.nacks", float64(nacks), "count")

	// joiner: batched consume, reorder, decode, store/probe.
	jt := float64(peak.joinerTuples.Load())
	put("joiner.batch_size.mean", float64(peak.joinerDeliveries.Load())/float64(max(peak.joinerBatches.Load(), 1)), "count")
	put("joiner.handle_us_per_tuple", float64(peak.joinerBusy.Load())/us/jt, "us")
	put("joiner.self_us_per_tuple", float64(peak.joinerBusy.Load()-peak.pubNanos[kPubResult].Load())/us/jt, "us")
	// Each member runs two consume loops (store and join stream).
	put("joiner.busy_frac", float64(peak.joinerBusy.Load())/(busyNS*float64(2*members)), "ratio")
	p50, p99 := reorderWait(r.snapPaced)
	put("joiner.reorder_wait_ms.p50", p50/ms, "ms")
	put("joiner.reorder_wait_ms.p99", p99/ms, "ms")
	var probed, comparisons, results int64
	for _, md := range append(slices.Clone(r.peakR), r.peakS...) {
		probed += md.probed
		comparisons += md.comparisons
		results += md.results
	}
	put("joiner.comparisons_per_probe", float64(comparisons)/float64(max(probed, 1)), "count")
	put("joiner.results_per_comparison", float64(results)/float64(max(comparisons, 1)), "ratio")
	put("joiner.window_tuples", float64(r.snapPaced.WindowTuples), "count")
	put("joiner.window_bytes", float64(r.snapPaced.WindowBytes), "bytes")
	put("joiner.store_imbalance", max(imbalance(r.peakR), imbalance(r.peakS)), "ratio")

	// The engine's own sampled stage histograms over the paced slices, as
	// a cross-check of the spans above and of the benchmark's latency.
	for _, st := range []string{"deliver", "order", "e2e"} {
		put("stage."+st+"_ms.mean", r.stage["stage."+st], "ms")
	}
	var sum float64
	for _, l := range r.latMS {
		sum += l
	}
	put("bench.paced_mean_ms", sum/float64(max(len(r.latMS), 1)), "ms")
	return m
}

// dwell matches each sampled receipt with the earliest sampled publish
// of the same message (kind and trace id) and returns the waits in ms:
// publish call start → consumer receipt. Message.Timestamp does not
// travel over the wire protocol, so the traced publish start stands in
// for it on every transport.
func dwell(spans []span, pairs [][2]spanKind) []float64 {
	type key struct {
		kind spanKind
		id   uint64
	}
	pub := map[key]int64{}
	for _, s := range spans {
		for _, p := range pairs {
			if s.kind == p[0] {
				k := key{p[0], s.id}
				if t, ok := pub[k]; !ok || s.start < t {
					pub[k] = s.start
				}
			}
		}
	}
	var out []float64
	for _, s := range spans {
		if s.phase != phasePaced {
			continue
		}
		for _, p := range pairs {
			if s.kind == p[1] {
				if t, ok := pub[key{p[0], s.id}]; ok {
					out = append(out, float64(s.start-t)/1e6)
				}
			}
		}
	}
	return out
}

// routerSpans returns the paced router handle times and their self
// times (handle minus the store and join publishes made inside it), µs.
func routerSpans(spans []span) (handle, self []float64) {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.kind == kPubStore || s.kind == kPubJoin {
			children[s.id] = append(children[s.id], s)
		}
	}
	for _, s := range spans {
		if s.kind != kRouterHandle || s.phase != phasePaced {
			continue
		}
		d := s.end - s.start
		own := d
		for _, c := range children[s.id] {
			if c.start >= s.start && c.end <= s.end {
				own -= c.end - c.start
			}
		}
		handle = append(handle, float64(d)/1e3)
		self = append(self, float64(own)/1e3)
	}
	return handle, self
}

// reorderWait summarizes the members' reorder-buffer latency: the
// count-weighted mean of their p50s and the largest p99, in ns.
func reorderWait(s bistream.Snapshot) (p50, p99 float64) {
	var n float64
	for _, g := range [][]bistream.MemberView{s.RJoiners, s.SJoiners} {
		for _, mv := range g {
			c := float64(mv.Latency.Count)
			p50 += c * float64(mv.Latency.P50)
			n += c
			p99 = max(p99, float64(mv.Latency.P99))
		}
	}
	if n > 0 {
		p50 /= n
	}
	return p50, p99
}

// imbalance is max/mean of the tuples each member of one group stored
// over the peak slices.
func imbalance(group []memberDelta) float64 {
	var vals []float64
	for _, md := range group {
		vals = append(vals, float64(md.stored))
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return vals[len(vals)-1] / (sum / float64(len(vals)))
}

// singleThreadBaseline runs baselineJob at GOMAXPROCS=1 with 1 router,
// 1+1 joiners and one store shard: equi-local's job with a shorter
// window on one core, reported next to the parallel figures and not
// gated.
func singleThreadBaseline(opts options) (*passResult, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	w := baselineJob
	ph := phases{warm: w.phases(0).warm, peak: baselinePeakTuples, slices: 1}
	return pass(passConfig{w: w, seed: opts.seed, ph: ph, setups: 1, deploy: deployOptions{
		routers: 1, rJoiners: 1, sJoiners: 1, shards: 1, traceSample: -1, tmpRoot: opts.tmp,
	}})
}
