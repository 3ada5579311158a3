package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// percentile the run has too few samples for is lowered until it has them,
// and the percentile actually used is reported next to the value.
const minBeyond = 10

// pct is one reported percentile: the value, the percentile it was taken at
// (at most the one asked for) and the sample count behind it.
type pct struct {
	Value float64
	At    float64
	N     int
}

// ok reports whether the samples supported any percentile at all.
func (p pct) ok() bool { return p.N > minBeyond }

// percentile returns the nearest-rank percentile q (0 < q < 1) of xs, or the
// highest lower one that still leaves minBeyond samples above it. With
// minBeyond or fewer samples it returns a pct with ok() false.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n <= minBeyond {
		return pct{Value: math.NaN(), N: n}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if maxK := n - 1 - minBeyond; k > maxK {
		k = maxK
	}
	return pct{Value: s[k], At: float64(k+1) / float64(n), N: n}
}

// median is the plain middle value (mean of the two middle ones for an even
// count); it is used for repeated set-up times, where there are only a few.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
