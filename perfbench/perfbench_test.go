package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"bistream/internal/broker"
	"bistream/internal/tuple"
	"bistream/internal/wire"
)

// smallJob is a workload small enough to run inside a unit test.
func smallJob(band bool) workload {
	return workload{name: "small", transport: inProcess, band: band, rate: 2000, peak: 4000, window: time.Second, setups: 1}
}

// bruteForce is the quadratic reference the sorted checkers must match.
func bruteForce(s stream, n int, spanMS int64) []uint64 {
	var out []uint64
	for i := 0; i < n; i += 2 {
		for j := 1; j < n; j += 2 {
			if !within(s, i, j, spanMS) {
				continue
			}
			match := false
			if s.band {
				d := s.floatVal(i) - s.floatVal(j)
				match = d <= s.width && -d <= s.width
			} else {
				match = s.intKey(i) == s.intKey(j)
			}
			if match {
				out = append(out, pairKey(uint64(i+1), uint64(j+1)))
			}
		}
	}
	slices.Sort(out)
	return out
}

func TestReferenceJoinMatchesBruteForce(t *testing.T) {
	for _, band := range []bool{false, true} {
		w := smallJob(band)
		s := newStream(w, 3)
		n := 3000
		want := bruteForce(s, n, w.window.Milliseconds())
		got := expectedPairs(s, n, w.window.Milliseconds())
		if len(want) == 0 {
			t.Fatalf("band=%v: empty reference; the job is mis-sized", band)
		}
		if !slices.Equal(want, got) {
			t.Fatalf("band=%v: reference join has %d pairs, brute force %d", band, len(got), len(want))
		}
	}
}

func TestCheckerFlagsMissingAndDuplicatePairs(t *testing.T) {
	w := smallJob(false)
	want := expectedPairs(newStream(w, 5), 4000, w.window.Milliseconds())
	if len(want) < 3 {
		t.Fatalf("only %d reference pairs", len(want))
	}
	if v := compare(want, slices.Clone(want)); v.failed() != 0 {
		t.Fatalf("exact delivery flagged: %+v", v)
	}
	got := slices.Clone(want[1:])     // drop one pair
	got = append(got, want[2])        // deliver another twice
	got = append(got, pairKey(1, 99)) // and one that is not in the join
	v := compare(want, got)
	if v.missing != 1 || v.duplicates != 2 {
		t.Fatalf("missing=%d duplicates=%d, want 1 and 2", v.missing, v.duplicates)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newStream(w, 42), newStream(w, 42), newStream(w, 43)
		differs := false
		for i := 0; i < 1000; i++ {
			ta, tb := tuple.Marshal(a.tuple(i)), tuple.Marshal(b.tuple(i))
			if !slices.Equal(ta, tb) {
				t.Fatalf("%s: tuple %d differs between two streams of seed 42", w.name, i)
			}
			if !slices.Equal(ta, tuple.Marshal(c.tuple(i))) {
				differs = true
			}
		}
		if !differs {
			t.Fatalf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
	}
}

type batchAcker interface{ AckBatch(tags []uint64) error }

// checkWrapper asserts the traced client and its consumers offer
// PublishContext and AckBatch exactly when the wrapped ones do.
func checkWrapper(t *testing.T, inner broker.Client) {
	t.Helper()
	if err := inner.DeclareQueue("q", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	wrapped := tr.wrapClient(inner)
	_, innerCP := inner.(broker.ContextPublisher)
	_, wrapCP := wrapped.(broker.ContextPublisher)
	if innerCP != wrapCP {
		t.Fatalf("%T: ContextPublisher inner=%v wrapped=%v", inner, innerCP, wrapCP)
	}
	rawCons, err := inner.Consume("q", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rawCons.Cancel()
	cons, err := wrapped.Consume("q", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Cancel()
	_, innerBA := rawCons.(batchAcker)
	_, wrapBA := cons.(batchAcker)
	if innerBA != wrapBA {
		t.Fatalf("%T: AckBatch inner=%v wrapped=%v", rawCons, innerBA, wrapBA)
	}
}

func TestWrapperKeepsOptionalInterfaces(t *testing.T) {
	local := broker.New(nil)
	defer local.Close()
	checkWrapper(t, local) // has both

	b := broker.New(nil)
	defer b.Close()
	srv := wire.NewServer(b, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	checkWrapper(t, c) // has neither
}

func TestTracedPublishAndSettleAreCounted(t *testing.T) {
	b := broker.New(nil)
	defer b.Close()
	if err := b.DeclareExchange("x", broker.Direct); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareQueue("q", broker.QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("q", "x", "k"); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	c := tr.wrapClient(b)
	cons, err := c.Consume("q", 8, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Cancel()
	for i := 0; i < 3; i++ {
		if err := c.(broker.ContextPublisher).PublishContext(context.Background(), "x", "k", nil, []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	var tags []uint64
	for len(tags) < 3 {
		tags = append(tags, (<-cons.Deliveries()).Tag)
	}
	if err := cons.(batchAcker).AckBatch(tags); err != nil {
		t.Fatal(err)
	}
	tl := &tr.tallies[phaseWarm]
	if got := tl.pubCalls[kPubPunct].Load(); got != 3 { // unknown exchange: not a tuple envelope
		t.Fatalf("counted %d publishes, want 3", got)
	}
	if got := tl.settleCalls.Load(); got != 1 {
		t.Fatalf("counted %d settles, want 1", got)
	}
}

func TestSmallPassIsExact(t *testing.T) {
	for _, band := range []bool{false, true} {
		// The window outlasts the stream's 2.3 s of event time, so nothing
		// expires: this checks the harness, while the reference join's
		// window semantics are checked against brute force above.
		w := smallJob(band)
		w.window = 10 * time.Second
		res, err := pass(passConfig{
			w: w, seed: 9, ph: phases{warm: 2000, paced: 600, peak: 2000, slices: 2}, setups: 2,
			deploy: engineShape(options{}, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.failed() != 0 || res.resultDedup != 0 || res.verdict.expected == 0 {
			t.Fatalf("band=%v: %+v ingest errors %d, sink dedup %d", band, res.verdict, res.ingestErrors, res.resultDedup)
		}
		if len(res.setupS) != 2 || len(res.latMS) == 0 || len(res.lateMS) != 600 || len(res.sliceTPS) != 2 || res.peakNS <= 0 {
			t.Fatalf("band=%v: setups %v, %d paced samples, %d sent late-times, slices %v, peak %dns",
				band, res.setupS, len(res.latMS), len(res.lateMS), res.sliceTPS, res.peakNS)
		}
	}
}

func TestSelfTimeAndDwellFromSpans(t *testing.T) {
	const id = 7
	spans := []span{
		{kind: kPubEntry, id: id, start: 1000, end: 1500, phase: phasePaced},
		{kind: kRecvEntry, id: id, start: 4000, end: 4000, phase: phasePaced},
		{kind: kRouterHandle, id: id, start: 4000, end: 10000, phase: phasePaced},
		{kind: kPubStore, id: id, start: 5000, end: 6000, phase: phasePaced},
		{kind: kPubJoin, id: id, start: 7000, end: 9000, phase: phasePaced},
		{kind: kPubJoin, id: id, start: 20000, end: 21000, phase: phasePaced}, // outside the handle span
		{kind: kRecvStore, id: id, start: 8000, end: 8000, phase: phasePaced},
	}
	handle, self := routerSpans(spans)
	if len(handle) != 1 || handle[0] != 6 || self[0] != 3 {
		t.Fatalf("handle %v self %v, want [6] and [3] µs", handle, self)
	}
	if got := dwell(spans, [][2]spanKind{{kPubEntry, kRecvEntry}}); len(got) != 1 || got[0] != 0.003 {
		t.Fatalf("entry dwell %v ms, want [0.003]", got)
	}
	if got := dwell(spans, [][2]spanKind{{kPubStore, kRecvStore}, {kPubJoin, kRecvJoin}}); len(got) != 1 || got[0] != 0.003 {
		t.Fatalf("member dwell %v ms, want [0.003]", got)
	}
}
