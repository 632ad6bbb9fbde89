// Command perfbench is bistream's repository benchmark. It generates a
// seeded tuple stream in-process, drives bistream.Engine only through
// its public API, checks every join result against a reference join,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) of one workload as a JSON object on its last output line.
//
//	perfbench -workload equi-local -seed 1 -seconds 60 -trace 0
//
// See README.md in this directory for the workloads and the metric
// catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

// run executes the benchmark and returns the process exit code: 0 when
// every result checked out, 1 on a correctness failure.
func run() int {
	name := flag.String("workload", "equi-local", "workload to run, or \"all\"")
	seed := flag.Uint64("seed", 1, "stream seed")
	seconds := flag.Float64("seconds", 60, "measured seconds per run (sizes the paced and peak phases)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	tmp := flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for replica journals")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its span log to")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	all := report{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		w, err := lookupWorkload(n)
		if err != nil {
			fatal(err)
		}
		opts := options{seed: *seed, seconds: *seconds, tmp: *tmp, spans: *spans}
		var rep report
		if *trace == 1 {
			rep, err = runTraced(w, opts)
		} else {
			rep, err = runUntraced(w, opts)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if len(names) > 1 {
			printReport(rep)
			all.Correct = all.Correct && rep.Correct
			all.Attempted += rep.Attempted
			all.Failed += rep.Failed
			for k, m := range rep.Metrics {
				all.Metrics[w.name+"."+k] = m
			}
		} else {
			all = rep
		}
	}
	printReport(all)
	if !all.Correct {
		return 1
	}
	return 0
}

// options are the run-wide flags.
type options struct {
	seed    uint64
	seconds float64
	tmp     string
	spans   string
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func printReport(r report) {
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// engineShape is the engine every workload runs: 1 router and 2+2
// joiners. Two routers lose window-edge pairs (README.md, Defects).
func engineShape(opts options, tr *tracer) deployOptions {
	return deployOptions{routers: 1, rJoiners: 2, sJoiners: 2, traceSample: -1, tracer: tr, tmpRoot: opts.tmp}
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, opts options) (report, error) {
	res, err := pass(passConfig{w: w, seed: opts.seed, ph: w.phases(opts.seconds), setups: w.setups, deploy: engineShape(opts, nil)})
	if err != nil {
		return report{}, err
	}
	logPass(w, "untraced", res)
	m := map[string]metric{
		"setup_s":          {median(res.setupS), "s"},
		"peak_tps":         {median(res.sliceTPS), "tuples/s"},
		"cpu_us_per_tuple": {median(res.sliceCPU), "us"},
		"allocs_per_tuple": {float64(res.mallocs) / float64(res.peakTuples), "count"},
		"paced_p50_ms":     {quantile(res.latMS, 0.50), "ms"},
		"paced_p99_ms":     {quantile(res.latMS, 0.99), "ms"},
		"live_heap_mb":     {res.liveHeap / (1 << 20), "MB"},
	}
	return newReport(res, m), nil
}

// newReport fills the correctness fields from a pass (see
// passResult.attempts and passResult.failed).
func newReport(res *passResult, m map[string]metric) report {
	failed := res.failed()
	return report{
		Correct:   failed == 0,
		Attempted: res.attempts(),
		Failed:    failed,
		Metrics:   m,
	}
}

func logPass(w workload, label string, r *passResult) {
	v := r.verdict
	fmt.Fprintf(os.Stderr, "%s %s: setups=%v peak=%d tuples in %.3fs (slices %v tuples/s), paced samples=%d, expected=%d delivered=%d missing=%d duplicate=%d sink_dedup=%d ingest_errors=%d\n",
		w.name, label, roundAll(r.setupS, 4), r.peakTuples, float64(r.peakNS)/1e9, roundAll(r.sliceTPS, 0), len(r.latMS),
		v.expected, v.delivered, v.missing, v.duplicates, r.resultDedup, r.ingestErrors)
	for _, k := range v.examples {
		fmt.Fprintf(os.Stderr, "%s: failing pair R seq %d, S seq %d\n", w.name, k>>32, k&(1<<32-1))
	}
	if len(r.lateMS) > 0 && len(r.latMS) < 1000 {
		fmt.Fprintf(os.Stderr, "%s: only %d paced samples; p99 has fewer than 10 samples beyond it\n", w.name, len(r.latMS))
	}
}

func roundAll(v []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Round(x*p) / p
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
