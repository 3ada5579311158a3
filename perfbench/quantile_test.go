package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort a copy
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64 // value (the k-th smallest of 1..n)
		wantAt float64
	}{
		// Enough samples: the plain nearest-rank p99.
		{n: 2000, q: 0.99, want: 1980, wantAt: 0.99},
		{n: 1010, q: 0.99, want: 1000, wantAt: 1000.0 / 1010},
		// Too few for p99: lowered until 10 samples lie above it.
		{n: 1000, q: 0.99, want: 990, wantAt: 0.99},
		{n: 500, q: 0.99, want: 490, wantAt: 0.98},
		{n: 11, q: 0.99, want: 1, wantAt: 1.0 / 11},
		// p50 has room to spare.
		{n: 100, q: 0.50, want: 50, wantAt: 0.50},
	}
	for _, c := range cases {
		xs := seq(c.n)
		p := percentile(xs, c.q)
		if !p.ok() || p.Value != c.want || math.Abs(p.At-c.wantAt) > 1e-12 || p.N != c.n {
			t.Errorf("percentile(n=%d, q=%v) = %+v, want value %v at %v", c.n, c.q, p, c.want, c.wantAt)
		}
		beyond := 0
		for _, x := range xs {
			if x > p.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d q=%v: %d samples beyond the percentile, want >= %d", c.n, c.q, beyond, minBeyond)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
	}
}

func TestPercentileTooFewSamples(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if p := percentile(seq(n), 0.5); p.ok() || !math.IsNaN(p.Value) || p.N != n {
			t.Errorf("percentile of %d samples = %+v, want not ok", n, p)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median = %v", m)
	}
}
