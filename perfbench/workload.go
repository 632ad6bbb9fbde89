package main

import (
	"fmt"
	"math"
	"time"

	"bistream"
	"bistream/internal/tuple"
)

// transport names the broker a workload's engine talks through.
type transport int

const (
	inProcess transport = iota // the engine's private in-process broker
	overWire                   // a wire.Client on a loopback wire.Server
	quorum                     // a 3-node replica group at quorum 2
)

func (t transport) String() string {
	switch t {
	case overWire:
		return "wire"
	case quorum:
		return "quorum"
	default:
		return "in-process"
	}
}

// workload is one benchmark job: a predicate over a seeded stream, a
// broker transport, and the rates that size its phases. Every workload
// runs 1 router and 2+2 joiners in one process.
type workload struct {
	name      string
	transport transport
	band      bool          // Band(0,0,w) over floats; otherwise Equi(0,0) over ints
	rate      int           // paced open-loop rate, tuples/s (≈ a third of the peak on 2 cores)
	peak      int           // nominal peak tuples/s; sizes the flat-out phase
	window    time.Duration // sliding window span
	setups    int           // set-ups timed per run; setup_s is their median
}

// workloads is the benchmark's catalog, in BENCHMARK.json order.
var workloads = []workload{
	{name: "equi-local", transport: inProcess, rate: 25000, peak: 70000, window: 10 * time.Second, setups: 15},
	{name: "band-local", transport: inProcess, band: true, rate: 5000, peak: 12500, window: 40 * time.Second, setups: 15},
	{name: "equi-wire", transport: overWire, rate: 1000, peak: 2800, window: 10 * time.Second, setups: 15},
	{name: "equi-quorum", transport: quorum, rate: 250, peak: 1000, window: 10 * time.Second, setups: 5},
}

// baselineJob is equi-local's predicate, rate and matches per probe
// with a 1 s window, so the single-threaded baseline fills its window
// quickly. The shorter window holds a tenth of equi-local's tuples, so
// its key domain is 12.5k keys rather than 125k. baselinePeakTuples
// sizes its flat-out phase.
var baselineJob = workload{name: "equi-local-1cpu", transport: inProcess, rate: 25000, peak: 70000, window: time.Second, setups: 1}

const baselinePeakTuples = 60000

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// matchesPerProbe sizes the key domain (equi) or the band width (band)
// so a probe against a full window finds about this many partners.
const matchesPerProbe = 1.0

// predicate builds the workload's join predicate.
func (w workload) predicate() bistream.Predicate {
	if w.band {
		return bistream.Band(0, 0, w.bandWidth())
	}
	return bistream.Equi(0, 0)
}

// storedPerRelation is the steady number of tuples of one relation
// inside the window: tuples alternate R/S at the nominal rate.
func (w workload) storedPerRelation() float64 {
	return float64(w.rate) / 2 * w.window.Seconds()
}

// keys is the uniform equi-join key domain: a probe meets
// storedPerRelation tuples spread over keys values.
func (w workload) keys() int64 {
	return int64(math.Round(w.storedPerRelation() / matchesPerProbe))
}

// bandWidth is w in |r - s| <= w over uniform [0,1) floats: a probe's
// range 2w covers matchesPerProbe of the stored tuples.
func (w workload) bandWidth() float64 {
	return matchesPerProbe / (2 * w.storedPerRelation())
}

// phases splits one run into tuple counts. Warm-up fills the window
// (one span of event time), the paced phase runs for a share of the
// measured seconds at the workload's rate, and the peak phase offers a
// share of the seconds' worth of nominal peak traffic flat out. Both
// are cut into slices, which alternate: paced 1, peak 1, paced 2, ...
type phases struct {
	warm, paced, peak int
	slices            int
}

// pacedShare and peakShare are the parts of --seconds spent in the
// paced and peak phases; the remainder covers warm-up and drains.
const (
	pacedShare = 0.3
	peakShare  = 0.5
)

// slicesPerRun is how many paced and peak slices a run alternates;
// peak_tps and cpu_us_per_tuple are medians over the peak slices.
const slicesPerRun = 5

func (w workload) phases(seconds float64) phases {
	return phases{
		warm:   int(math.Round(w.storedPerRelation() * 2)),
		paced:  int(math.Round(pacedShare * seconds * float64(w.rate))),
		peak:   int(math.Round(peakShare * seconds * float64(w.peak))),
		slices: slicesPerRun,
	}
}

func (p phases) total() int { return p.warm + p.paced + p.peak }

// stream is the seeded tuple stream of one run. Tuple i is R when i is
// even and S when odd, carries seq i+1, event time i/rate seconds past
// baseTS, and one attribute drawn from a hash of (seed, i) — so any
// tuple can be regenerated on its own, and the same seed always yields
// the same stream. Tuple 1 repeats tuple 0's attribute: the stream
// opens with a matching pair, so the time to the first result (set-up)
// measures the engine rather than where the seed's first match falls.
type stream struct {
	seed  uint64
	rate  int64
	band  bool
	keys  int64
	width float64
}

// baseTS keeps event times well away from zero.
const baseTS int64 = 1_700_000_000_000

func newStream(w workload, seed uint64) stream {
	s := stream{seed: seed, rate: int64(w.rate), band: w.band}
	if w.band {
		s.width = w.bandWidth()
	} else {
		s.keys = w.keys()
	}
	return s
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s stream) rel(i int) tuple.Relation {
	if i%2 == 0 {
		return tuple.R
	}
	return tuple.S
}

func (s stream) ts(i int) int64 { return baseTS + int64(i)*1000/s.rate }

func (s stream) draw(i int) uint64 {
	if i == 1 {
		i = 0
	}
	return mix(s.seed ^ mix(uint64(i)))
}

func (s stream) intKey(i int) int64 { return int64(s.draw(i) % uint64(s.keys)) }

func (s stream) floatVal(i int) float64 { return float64(s.draw(i)>>11) / (1 << 53) }

// tuple materializes tuple i.
func (s stream) tuple(i int) *bistream.Tuple {
	var v bistream.Value
	if s.band {
		v = bistream.Float(s.floatVal(i))
	} else {
		v = bistream.Int(s.intKey(i))
	}
	return bistream.NewTuple(s.rel(i), uint64(i+1), s.ts(i), v)
}
