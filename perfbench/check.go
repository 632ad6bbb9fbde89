package main

import (
	"math"
	"slices"
	"sort"

	"bistream/internal/tuple"
)

// pairKey packs a result pair (R seq, S seq) into one word; seqs stay
// far below 2^32 at benchmark sizes.
func pairKey(rSeq, sSeq uint64) uint64 { return rSeq<<32 | sSeq }

// expectedPairs recomputes the exact join of tuples [0, n) of s: every
// (r, s) pair whose event times differ by at most spanMS and whose
// attributes satisfy the workload predicate, each exactly once, sorted.
func expectedPairs(s stream, n int, spanMS int64) []uint64 {
	if s.band {
		return expectedBand(s, n, spanMS)
	}
	return expectedEqui(s, n, spanMS)
}

func within(s stream, i, j int, spanMS int64) bool {
	d := s.ts(i) - s.ts(j)
	if d < 0 {
		d = -d
	}
	return d <= spanMS
}

// pair orders a matched (i, j) index pair as (R seq, S seq).
func pair(s stream, i, j int) uint64 {
	if s.rel(i) == tuple.S {
		i, j = j, i
	}
	return pairKey(uint64(i+1), uint64(j+1))
}

// expectedEqui sorts each relation's indices by key and joins equal-key
// runs, keeping the in-window pairs.
func expectedEqui(s stream, n int, spanMS int64) []uint64 {
	var rs, ss []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			rs = append(rs, i)
		} else {
			ss = append(ss, i)
		}
	}
	byKey := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool {
			ka, kb := s.intKey(idx[a]), s.intKey(idx[b])
			if ka != kb {
				return ka < kb
			}
			return idx[a] < idx[b]
		})
	}
	byKey(rs)
	byKey(ss)
	var out []uint64
	for a, b := 0, 0; a < len(rs) && b < len(ss); {
		ka, kb := s.intKey(rs[a]), s.intKey(ss[b])
		switch {
		case ka < kb:
			a++
		case ka > kb:
			b++
		default:
			a2 := a
			for a2 < len(rs) && s.intKey(rs[a2]) == ka {
				a2++
			}
			b2 := b
			for b2 < len(ss) && s.intKey(ss[b2]) == ka {
				b2++
			}
			for _, i := range rs[a:a2] {
				for _, j := range ss[b:b2] {
					if within(s, i, j, spanMS) {
						out = append(out, pair(s, i, j))
					}
				}
			}
			a, b = a2, b2
		}
	}
	slices.Sort(out)
	return out
}

// expectedBand sorts R by value and range-scans it for every S tuple,
// applying the predicate exactly as the engine does.
func expectedBand(s stream, n int, spanMS int64) []uint64 {
	var rs []int
	for i := 0; i < n; i += 2 {
		rs = append(rs, i)
	}
	vals := make([]float64, len(rs))
	sort.Slice(rs, func(a, b int) bool { return s.floatVal(rs[a]) < s.floatVal(rs[b]) })
	for k, i := range rs {
		vals[k] = s.floatVal(i)
	}
	// Widen the scan a hair past w so float rounding at the range edges
	// cannot hide a pair the exact test below accepts.
	pad := s.width * (1 + 1e-9)
	var out []uint64
	for j := 1; j < n; j += 2 {
		v := s.floatVal(j)
		for k := sort.SearchFloat64s(vals, v-pad); k < len(vals) && vals[k] <= v+pad; k++ {
			if math.Abs(vals[k]-v) <= s.width && within(s, rs[k], j, spanMS) {
				out = append(out, pair(s, rs[k], j))
			}
		}
	}
	slices.Sort(out)
	return out
}

// verdict compares the pairs delivered to OnResult with the reference.
type verdict struct {
	expected   int      // reference pairs
	delivered  int      // pairs delivered to OnResult
	missing    int      // reference pairs never delivered
	duplicates int      // extra deliveries of a pair, and pairs outside the reference
	examples   []uint64 // a few failing pairKeys, for the log
}

const maxExamples = 5

func (v *verdict) note(k uint64) {
	if len(v.examples) < maxExamples {
		v.examples = append(v.examples, k)
	}
}

func (v verdict) failed() int { return v.missing + v.duplicates }

// compare sorts got in place and merges it against the sorted want.
func compare(want, got []uint64) verdict {
	slices.Sort(got)
	v := verdict{expected: len(want), delivered: len(got)}
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case j == len(got) || (i < len(want) && want[i] < got[j]):
			v.missing++
			v.note(want[i])
			i++
		case i == len(want) || got[j] < want[i]:
			v.duplicates++ // not a reference pair at all
			v.note(got[j])
			j++
		default:
			k := want[i]
			j++
			for j < len(got) && got[j] == k {
				v.duplicates++
				v.note(k)
				j++
			}
			i++
		}
	}
	return v
}
