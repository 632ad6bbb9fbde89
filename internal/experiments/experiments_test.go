package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"bistream/internal/predicate"
	"bistream/internal/tuple"
	"bistream/internal/window"
	"bistream/internal/workload"
)

func TestSyncBicliqueMatchesReference(t *testing.T) {
	win := window.Sliding{Span: time.Minute}
	pred := predicate.NewEqui(0, 0)
	sb, err := NewSyncBiclique(pred, win, 3, 2, 3, 2) // hash routing
	if err != nil {
		t.Fatal(err)
	}
	tuples := modelWorkload(1000, 20, 3)
	got := map[[2]uint64]int{}
	for _, tp := range tuples {
		if err := sb.Process(tp, func(jr tuple.JoinResult) { got[jr.Key()]++ }); err != nil {
			t.Fatal(err)
		}
	}
	want := map[[2]uint64]int{}
	for _, a := range tuples {
		if a.Rel != tuple.R {
			continue
		}
		for _, b := range tuples {
			if b.Rel == tuple.S && pred.Match(a, b) && win.Contains(a.TS, b.TS) {
				want[[2]uint64{a.Seq, b.Seq}]++
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("pair %v produced %d times", k, n)
		}
	}
}

func TestSyncBicliqueHashFanout(t *testing.T) {
	sb, err := NewSyncBiclique(predicate.NewEqui(0, 0), window.Sliding{Span: time.Minute}, 4, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range modelWorkload(100, 50, 1) {
		if err := sb.Process(tp, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Hash routing: 1 store + 1 join copy per tuple.
	if got := sb.CopiesPerTuple(); got != 2 {
		t.Errorf("CopiesPerTuple = %v, want 2", got)
	}
}

func TestRunModelComparisonShape(t *testing.T) {
	cfg := DefaultModelComparisonConfig()
	cfg.UnitCounts = []int{4, 16}
	cfg.Tuples = 4000
	rows, err := RunModelComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Communication: biclique sends ≈ p/2+1 copies, matrix √p; both
		// measured values must match the analytic ones.
		if math.Abs(r.BicliqueCopies-r.AnalyticBiclique) > 0.01 {
			t.Errorf("p=%d biclique copies %v != analytic %v", r.Units, r.BicliqueCopies, r.AnalyticBiclique)
		}
		if math.Abs(r.MatrixCopies-r.AnalyticMatrix) > 0.01 {
			t.Errorf("p=%d matrix copies %v != analytic %v", r.Units, r.MatrixCopies, r.AnalyticMatrix)
		}
		// Memory: biclique stores each tuple once, matrix √p times.
		if r.MatrixStored <= r.BicliqueStored {
			t.Errorf("p=%d matrix stored %d should exceed biclique %d", r.Units, r.MatrixStored, r.BicliqueStored)
		}
		ratio := float64(r.MatrixStored) / float64(r.BicliqueStored)
		if math.Abs(ratio-r.AnalyticMatrix) > 0.2 {
			t.Errorf("p=%d replication ratio %v, want ≈√p=%v", r.Units, ratio, r.AnalyticMatrix)
		}
		// Both models compute the same join.
		if r.BicliqueResults != r.MatrixResults {
			t.Errorf("p=%d results differ: %d vs %d", r.Units, r.BicliqueResults, r.MatrixResults)
		}
	}
	// The communication gap must widen with p (the §2.4.1 trade-off).
	if rows[1].BicliqueCopies/rows[1].MatrixCopies <= rows[0].BicliqueCopies/rows[0].MatrixCopies {
		t.Error("biclique/matrix communication ratio should grow with p")
	}
	out := FormatModelRows(rows)
	if !strings.Contains(out, "copies/tuple") {
		t.Errorf("table: %s", out)
	}
}

func TestRunModelComparisonValidation(t *testing.T) {
	if _, err := RunModelComparison(ModelComparisonConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := DefaultModelComparisonConfig()
	cfg.UnitCounts = []int{5} // not a square
	if _, err := RunModelComparison(cfg); err == nil {
		t.Error("non-square unit count accepted")
	}
}

func TestRunOrderingProtocolExactlyOnce(t *testing.T) {
	cfg := DefaultOrderingConfig()
	cfg.Pairs = 500
	with, without, err := RunOrdering(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if with.Exact != cfg.Pairs || with.Missed != 0 || with.Duplicated != 0 {
		t.Errorf("with protocol: %+v", with)
	}
	// Without the protocol the Figure 8 anomalies must actually appear.
	if without.Missed == 0 && without.Duplicated == 0 {
		t.Errorf("without protocol saw no anomalies: %+v", without)
	}
	if without.Exact == cfg.Pairs {
		t.Error("unordered mode accidentally exact")
	}
	out := FormatOrdering(with, without)
	if !strings.Contains(out, "order-consistent") || !strings.Contains(out, "unordered") {
		t.Errorf("format: %s", out)
	}
}

func TestRunChainSweep(t *testing.T) {
	cfg := DefaultChainConfig()
	cfg.Tuples = 40_000
	rows, err := RunChainSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Periods)+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	flat := rows[len(rows)-1]
	if flat.Label != "flat (tuple-level)" {
		t.Fatalf("last row = %+v", flat)
	}
	// Every configuration must discard roughly the same tuples (same
	// window) — chained at sub-index granularity, flat per tuple.
	for _, r := range rows[:len(rows)-1] {
		if r.Dropped == 0 {
			t.Errorf("%s dropped nothing", r.Label)
		}
		if r.FinalLen <= 0 {
			t.Errorf("%s has empty window", r.Label)
		}
	}
	// Larger archive periods keep more stale data live (fewer, coarser
	// discards): live size must be non-decreasing in P.
	for i := 1; i < len(rows)-1; i++ {
		if rows[i].FinalLen < rows[i-1].FinalLen {
			t.Errorf("live size decreased with larger P: %+v -> %+v", rows[i-1], rows[i])
		}
	}
	out := FormatChainRows(rows)
	if !strings.Contains(out, "flat") {
		t.Errorf("table: %s", out)
	}
}

func TestRunRoutingStrategies(t *testing.T) {
	cfg := DefaultRoutingConfig()
	cfg.Tuples = 20_000
	rows, err := RunRoutingStrategies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]RoutingRow{}
	for _, r := range rows {
		byKey[r.Strategy+"/"+r.Distribution] = r
	}
	// ContRand under skew: communication stays near hash (most keys are
	// cold) while balance beats pure hash (hot keys scatter).
	cr, hz, rz := byKey["contrand/zipf"], byKey["hash/zipf"], byKey["random/zipf"]
	if cr.Imbalance >= hz.Imbalance {
		t.Errorf("contrand imbalance %.2f should beat hash %.2f under zipf", cr.Imbalance, hz.Imbalance)
	}
	if cr.CopiesPerTuple >= rz.CopiesPerTuple {
		t.Errorf("contrand copies %.2f should be far below random %.2f", cr.CopiesPerTuple, rz.CopiesPerTuple)
	}
	if cr.Results != hz.Results || hz.Results != rz.Results {
		t.Errorf("results differ across strategies: contrand=%d hash=%d random=%d",
			cr.Results, hz.Results, rz.Results)
	}
	// Communication: random broadcasts to the whole group, hash sends
	// one copy, subgroup sits in between.
	if byKey["random/uniform"].CopiesPerTuple <= byKey["subgroup/uniform"].CopiesPerTuple {
		t.Error("random should cost more copies than subgroup")
	}
	if byKey["subgroup/uniform"].CopiesPerTuple <= byKey["hash/uniform"].CopiesPerTuple {
		t.Error("subgroup should cost more copies than hash")
	}
	if got := byKey["hash/uniform"].CopiesPerTuple; got != 2 {
		t.Errorf("hash copies/tuple = %v, want 2", got)
	}
	// Balance under skew: random stays near 1.0, hash gets hot spots.
	if byKey["hash/zipf"].Imbalance < byKey["random/zipf"].Imbalance {
		t.Errorf("hash under zipf (%.2f) should be more imbalanced than random (%.2f)",
			byKey["hash/zipf"].Imbalance, byKey["random/zipf"].Imbalance)
	}
	if byKey["random/zipf"].Imbalance > 1.2 {
		t.Errorf("random imbalance = %.2f, want ≈1", byKey["random/zipf"].Imbalance)
	}
	out := FormatRoutingRows(rows)
	if !strings.Contains(out, "imbalance") {
		t.Errorf("table: %s", out)
	}
}

// shortAutoscale compresses the Figure 20 run for unit testing: same
// control loops, ~6 virtual minutes.
func shortAutoscale() AutoscaleConfig {
	cfg := Fig20Config()
	cfg.Duration = 6 * time.Minute
	cfg.WindowSpan = 2 * time.Minute
	cfg.Profile = workload.RateProfile{
		{From: 0, TuplesPerSec: 300},
		{From: 3 * time.Minute, TuplesPerSec: 450},
	}
	cfg.StabilizationWindow = time.Minute
	return cfg
}

func TestRunAutoscaleCPUShape(t *testing.T) {
	res, err := RunAutoscale(shortAutoscale())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxReplicas < 2 {
		t.Errorf("autoscaler never scaled up: path %v", res.ReplicaPath)
	}
	if res.ReplicaPath[0] != 1 {
		t.Errorf("path should start at 1: %v", res.ReplicaPath)
	}
	if res.TuplesIn == 0 || res.Results == 0 {
		t.Errorf("no traffic processed: %+v", res)
	}
	for _, name := range []string{"rate", "cpu_pct", "joiner_r_pods", "mem_mb"} {
		if len(res.Recorder.Series(name)) == 0 {
			t.Errorf("series %q missing", name)
		}
	}
	out := FormatAutoscaleResult(res, shortAutoscale())
	if !strings.Contains(out, "replica path") {
		t.Errorf("format: %s", out)
	}
}

func TestRunAutoscaleMemoryShape(t *testing.T) {
	cfg := Fig21Config()
	cfg.Duration = 8 * time.Minute
	cfg.WindowSpan = 2 * time.Minute
	cfg.Profile = workload.RateProfile{
		{From: 0, TuplesPerSec: 300},
		{From: 3 * time.Minute, TuplesPerSec: 500},
		{From: 6 * time.Minute, TuplesPerSec: 100},
	}
	// Rescale the payload for the shorter window: ≈560MB live at
	// 500 t/s (250/s R × 120s window = 30k tuples).
	cfg.PayloadBytes = 18_000
	cfg.StabilizationWindow = time.Minute
	res, err := RunAutoscale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxReplicas < 2 {
		t.Errorf("memory autoscaler never scaled: path %v peak %.0fMB", res.ReplicaPath, res.PeakMemMB)
	}
	if res.PeakMemMB < 520 {
		t.Errorf("peak memory %.0fMB never crossed the target", res.PeakMemMB)
	}
	// Window discarding must bound memory: final << peak after the
	// rate drop.
	if res.FinalMemMB > res.PeakMemMB {
		t.Errorf("memory not bounded: final %.0f > peak %.0f", res.FinalMemMB, res.PeakMemMB)
	}
}

func TestRunAutoscaleValidation(t *testing.T) {
	if _, err := RunAutoscale(AutoscaleConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := Fig20Config()
	cfg.Profile = nil
	if _, err := RunAutoscale(cfg); err == nil {
		t.Error("empty profile accepted")
	}
}

func TestRunScaleOutThroughputGrows(t *testing.T) {
	cfg := DefaultScaleOutConfig()
	cfg.JoinerCounts = []int{1, 4}
	cfg.Tuples = 20_000
	rows, err := RunScaleOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Same predicate, same workload: result counts must not depend on
	// the cluster size (scaling correctness).
	if rows[0].Results != rows[1].Results {
		t.Errorf("equi results differ across sizes: %d vs %d", rows[0].Results, rows[1].Results)
	}
	if rows[2].Results != rows[3].Results {
		t.Errorf("band results differ across sizes: %d vs %d", rows[2].Results, rows[3].Results)
	}
	out := FormatScaleOutRows(rows)
	if !strings.Contains(out, "tuples/s") {
		t.Errorf("table: %s", out)
	}
}

func TestRunHeapAblation(t *testing.T) {
	cfg := Fig21Config()
	cfg.Duration = 8 * time.Minute
	cfg.WindowSpan = 2 * time.Minute
	cfg.Profile = workload.RateProfile{
		{From: 0, TuplesPerSec: 300},
		{From: 3 * time.Minute, TuplesPerSec: 500},
		{From: 6 * time.Minute, TuplesPerSec: 100},
	}
	cfg.PayloadBytes = 18_000
	cfg.StabilizationWindow = time.Minute
	rows, err := RunHeapAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	tuned, def := rows[0], rows[1]
	if !tuned.MemRecovered {
		t.Errorf("tuned policy should recover memory: %+v", tuned)
	}
	if def.MemRecovered {
		t.Errorf("default policy should ratchet, not recover: %+v", def)
	}
	out := FormatHeapAblation(rows)
	if !strings.Contains(out, "tuned") || !strings.Contains(out, "default") {
		t.Errorf("table: %s", out)
	}
}

func TestRunStatus(t *testing.T) {
	out, err := RunStatus()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Figure 14", "Figure 16", "Figure 17", "Figure 18", "Figure 19",
		"rabbitmq-mgmt", "biclique-joiner-r", "Rstore.exchange",
		"tuple.exchange.routergroup", "80% cpu",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q", want)
		}
	}
}

func TestRunPunctuationSweep(t *testing.T) {
	cfg := DefaultPunctuationConfig()
	cfg.Intervals = []time.Duration{2 * time.Millisecond, 50 * time.Millisecond}
	cfg.Tuples = 1000
	rows, err := RunPunctuationSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fast, slow := rows[0], rows[1]
	// The protocol's latency scales with the punctuation interval.
	if slow.MeanLatency <= fast.MeanLatency {
		t.Errorf("latency should grow with interval: %v @2ms vs %v @50ms",
			fast.MeanLatency, slow.MeanLatency)
	}
	// And its message overhead shrinks with the interval.
	if slow.SignalShare >= fast.SignalShare {
		t.Errorf("signal share should shrink with interval: %.3f @2ms vs %.3f @50ms",
			fast.SignalShare, slow.SignalShare)
	}
	// Same workload, same results regardless of cadence.
	if fast.Results != slow.Results {
		t.Errorf("results differ across intervals: %d vs %d", fast.Results, slow.Results)
	}
	out := FormatPunctuationRows(rows)
	if !strings.Contains(out, "signal share") {
		t.Errorf("table: %s", out)
	}
}

func TestRunPunctuationValidation(t *testing.T) {
	if _, err := RunPunctuationSweep(PunctuationConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestRunScaleInMigratesCompletely(t *testing.T) {
	cfg := DefaultScaleInConfig()
	cfg.Tuples = 2_000
	cfg.PostTuples = 500
	cfg.Keys = 400
	res, err := RunScaleIn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleEvents == 0 {
		t.Error("HPA issued no scale event")
	}
	if res.Migrations == 0 || res.MovedTuples == 0 {
		t.Errorf("no migration happened: migrations=%d moved=%d", res.Migrations, res.MovedTuples)
	}
	if !res.Complete {
		t.Errorf("result set incomplete after scale-in: %d / %d", res.Results, res.Expected)
	}
	t.Log("\n" + FormatScaleIn(res))
}

func TestRunBrokerFail(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second broker failover run")
	}
	cfg := BrokerFailConfig{
		Nodes:             3,
		Quorum:            2,
		Messages:          200,
		Publishers:        2,
		Body:              32,
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      60 * time.Millisecond,
		Seed:              5,
	}
	res, err := RunBrokerFail(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SoloMsgsPerSec <= 0 || res.ReplMsgsPerSec <= 0 {
		t.Fatalf("non-positive throughput: %+v", res)
	}
	if res.FailoverPauseMS <= 0 {
		t.Fatalf("failover pause not measured: %+v", res)
	}
	// Every stream write carries at least one record; acks are counted.
	if res.RecordsPerWrite < 1 || res.RecordsPerAck <= 0 {
		t.Fatalf("replication batching not measured: %+v", res)
	}
	if res.PromotedID == res.KilledID || res.PromotedID == "" {
		t.Fatalf("promotion did not happen: %+v", res)
	}
	// Both throughput phases published Messages each; the failover
	// probe adds at least one more on the promoted leader's queue.
	if res.PostFailoverReady <= cfg.Messages {
		t.Fatalf("replicated log lost traffic across failover: ready=%d", res.PostFailoverReady)
	}
	if !strings.Contains(FormatBrokerFail(res, cfg), "failover pause") {
		t.Fatal("report missing failover pause line")
	}
}

func TestRunSkewDriftAdaptiveBalances(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-engine sweep")
	}
	cfg := DefaultSkewDriftConfig()
	cfg.Pairs = 4000
	cfg.Eras = 2
	rows, err := RunSkewDrift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]SkewDriftRow{}
	for _, r := range rows {
		byName[r.Strategy+"/"+r.Distribution] = r
		if r.TuplesPer <= 0 || r.Results <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		if len(r.EraImbalance) != cfg.Eras || len(r.EraTuplesPer) != cfg.Eras {
			t.Fatalf("era curves truncated: %+v", r)
		}
	}
	hash, adaptive := byName["hash/drift"], byName["adaptive/drift"]
	// The directional claim, not the full-size acceptance numbers: the
	// adaptive loop must hold stores materially flatter than static hash
	// under the same rotating skew, and must actually have migrated.
	if adaptive.MaxImbalance >= hash.MaxImbalance {
		t.Errorf("adaptive imbalance %.2f not below hash %.2f",
			adaptive.MaxImbalance, hash.MaxImbalance)
	}
	if adaptive.KeyMoves == 0 || adaptive.MovedTuples == 0 {
		t.Errorf("no key migration ran: moves=%d moved=%d",
			adaptive.KeyMoves, adaptive.MovedTuples)
	}
	if hash.KeyMoves != 0 {
		t.Errorf("static hash reported %d key moves", hash.KeyMoves)
	}
	t.Log("\n" + FormatSkewDriftRows(rows))
}

func TestRunSkewDriftValidation(t *testing.T) {
	cfg := DefaultSkewDriftConfig()
	cfg.Eras = 3 // does not divide Pairs
	cfg.Pairs = 100
	if _, err := RunSkewDrift(cfg); err == nil {
		t.Fatal("indivisible Pairs/Eras accepted")
	}
}
