package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer samples is too noisy to compare.
const minBeyond = 10

// pct is one reported percentile: the value at P (nearest rank) over N
// samples. P is the requested percentile, or the highest lower one that
// still leaves minBeyond samples above it.
type pct struct {
	Value float64
	P     float64
	N     int
	// OK is false when N <= minBeyond: no percentile qualifies, and
	// Value is the median of what there is (0 for no samples).
	OK bool
}

// percentile returns the nearest-rank percentile want (0 < want <= 100)
// of samples, capped to the highest one with at least minBeyond samples
// beyond it. samples is not modified.
func percentile(samples []float64, want float64) pct {
	n := len(samples)
	if n <= minBeyond {
		return pct{Value: median(samples), P: 50, N: n}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(want / 100 * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	p := want
	if max := n - minBeyond; k > max {
		k = max
		p = 100 * float64(k) / float64(n)
	}
	return pct{Value: s[k-1], P: p, N: n, OK: true}
}

// String renders the percentile with its sample count for the report.
func (p pct) String() string {
	if !p.OK {
		return fmt.Sprintf("median of only %d samples: too few for any percentile", p.N)
	}
	return fmt.Sprintf("p%.4g of %d samples", p.P, p.N)
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gmean is the geometric mean of positive values; 0 for none.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
