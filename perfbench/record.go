package main

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"bistream"
)

// offHeap is a fixed-capacity []int64 in anonymous memory outside the
// Go heap, so the benchmark's own bookkeeping never shows up in
// live_heap_mb or in the garbage collector's work. Pages are committed
// only when touched, so generous capacities cost nothing.
type offHeap struct {
	mem []byte
	v   []int64
}

func newOffHeap(n int) (*offHeap, error) {
	n = max(n, 1)
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d words: %w", n, err)
	}
	return &offHeap{mem: mem, v: unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), n)}, nil
}

func (o *offHeap) free() { _ = syscall.Munmap(o.mem) }

// clock is the benchmark's monotonic time base: nanoseconds since the
// process started measuring.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// recorder is the engine's OnResult sink. It runs on the engine's single
// sink goroutine and only writes fixed off-heap slots and atomics, so
// what it adds to the measured pipeline is a few stores per result.
type recorder struct {
	pairs *offHeap // pairKey per delivered result
	lats  *offHeap // paced-phase latencies, ns
	n     atomic.Int64
	nLat  atomic.Int64
	lost  atomic.Int64 // results past the pairs capacity (counted as failures)
	first atomic.Int64 // nanotime of the first result, 0 before it
	last  atomic.Int64 // nanotime of the latest result

	// Paced window: results whose later parent has seq in [pacedLo,
	// pacedHi) are timed from that parent's due time.
	pacedLo, pacedHi atomic.Uint64
	pacedStart       atomic.Int64
	rate             int64
}

func newRecorder(maxResults, maxLats int, rate int) (*recorder, error) {
	pairs, err := newOffHeap(maxResults)
	if err != nil {
		return nil, err
	}
	lats, err := newOffHeap(maxLats)
	if err != nil {
		pairs.free()
		return nil, err
	}
	return &recorder{pairs: pairs, lats: lats, rate: int64(rate)}, nil
}

func (r *recorder) free() {
	r.pairs.free()
	r.lats.free()
}

// reset forgets everything recorded (between discarded set-ups).
func (r *recorder) reset() {
	r.n.Store(0)
	r.nLat.Store(0)
	r.lost.Store(0)
	r.first.Store(0)
	r.last.Store(0)
	r.pacedLo.Store(0)
	r.pacedHi.Store(0)
}

// setPaced opens the paced window: tuple index lo (seq lo+1) is due at
// start, and each later one 1/rate after its predecessor.
func (r *recorder) setPaced(lo, hi int, start int64) {
	r.pacedStart.Store(start)
	r.pacedLo.Store(uint64(lo + 1))
	r.pacedHi.Store(uint64(hi + 1))
}

// due returns the nanotime tuple seq was due to be sent in the paced
// phase.
func (r *recorder) due(seq uint64) int64 {
	return r.pacedStart.Load() + int64(seq-r.pacedLo.Load())*int64(time.Second)/r.rate
}

func (r *recorder) onResult(jr bistream.JoinResult) {
	now := nanotime()
	if n := r.n.Load(); int(n) < len(r.pairs.v) {
		r.pairs.v[n] = int64(pairKey(jr.Left.Seq, jr.Right.Seq))
		r.n.Store(n + 1)
	} else {
		r.lost.Add(1)
	}
	if r.first.Load() == 0 {
		r.first.Store(now)
	}
	r.last.Store(now)
	later := max(jr.Left.Seq, jr.Right.Seq)
	if later >= r.pacedLo.Load() && later < r.pacedHi.Load() {
		if k := r.nLat.Load(); int(k) < len(r.lats.v) {
			r.lats.v[k] = now - r.due(later)
			r.nLat.Store(k + 1)
		}
	}
}

// count is how many results reached the recorder.
func (r *recorder) count() int64 { return r.n.Load() + r.lost.Load() }

// pairsCopy returns the delivered pairs on the Go heap, for checking
// after timing stops.
func (r *recorder) pairsCopy() []uint64 {
	n := r.n.Load()
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(r.pairs.v[i])
	}
	return out
}

// latencies returns the paced latencies in milliseconds.
func (r *recorder) latencies() []float64 {
	n := r.nLat.Load()
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(r.lats.v[i]) / 1e6
	}
	return out
}
