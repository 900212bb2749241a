package main

import (
	"math"
	"testing"
)

func TestPercentileOnKnownDistribution(t *testing.T) {
	v := make([]float64, 1000) // 1, 2, ..., 1000
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1},
	} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// 150 of 15000 samples lie beyond p99: the count the README quotes.
	if beyond := 15000 - int(math.Ceil(0.99*15000)); beyond != 150 {
		t.Errorf("%d samples beyond p99", beyond)
	}
}

// The acceptance rule compares spreads computed by Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2.0, 8.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2, 4, 4, 5, 9, 11, 12, 30, 31, 40}, 4.0, 30.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v", got)
	}
}
