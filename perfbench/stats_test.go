package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		value  float64
		usedP  float64
		usable bool
	}{
		{n: 10, want: 50, value: 5.5, usable: false}, // nothing leaves ten above it: median
		{n: 11, want: 50, value: 1, usedP: 100.0 / 11, usable: true},
		{n: 15, want: 50, value: 5, usedP: 100.0 / 3, usable: true},
		{n: 20, want: 50, value: 10, usedP: 50, usable: true},
		{n: 100, want: 90, value: 90, usedP: 90, usable: true},
		{n: 100, want: 99, value: 90, usedP: 90, usable: true},
		{n: 1000, want: 99, value: 990, usedP: 99, usable: true},
		{n: 1000, want: 50, value: 500, usedP: 50, usable: true},
	}
	for _, c := range cases {
		got := percentile(seq(c.n), c.want)
		if got.OK != c.usable || got.N != c.n {
			t.Errorf("n=%d p%v: OK=%v N=%d, want OK=%v N=%d", c.n, c.want, got.OK, got.N, c.usable, c.n)
			continue
		}
		if !c.usable {
			if got.Value != c.value {
				t.Errorf("n=%d: fallback value %v, want the median %v", c.n, got.Value, c.value)
			}
			continue
		}
		if got.Value != c.value || math.Abs(got.P-c.usedP) > 1e-9 {
			t.Errorf("n=%d p%v: value %v at p%v, want %v at p%v", c.n, c.want, got.Value, got.P, c.value, c.usedP)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d p%v: only %d samples beyond the reported value", c.n, c.want, beyond)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := seq(30)
	percentile(xs, 50)
	if xs[0] != 30 {
		t.Fatalf("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
}
