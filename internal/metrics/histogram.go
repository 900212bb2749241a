package metrics

import (
	"math"
	"time"
)

// Histogram is a latency histogram with logarithmically spaced buckets
// covering 1µs to ~17min, plus exact min/max/sum tracking. Quantile
// estimates are bucket-resolution (≤ ~8% relative error), which is ample
// for reproducing the paper's millisecond-scale latency tables.
type Histogram struct {
	counts [bucketCount]int64
	n      int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	bucketCount = 200
	// Buckets are log-spaced: bucket i covers [base*g^i, base*g^(i+1)).
	histBase   = float64(time.Microsecond)
	histGrowth = 1.1
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := int(math.Log(float64(d)/histBase) / math.Log(histGrowth))
	if i < 0 {
		return 0
	}
	if i >= bucketCount {
		return bucketCount - 1
	}
	return i
}

func bucketUpper(i int) time.Duration {
	return time.Duration(histBase * math.Pow(histGrowth, float64(i+1)))
}

// Observe adds one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketIndex(d)]++
	h.n++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the exact sample mean (zero when empty).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Min returns the smallest sample (zero when empty).
func (h *Histogram) Min() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an upper-bound estimate of the q-quantile, q in [0,1].
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		seen += h.counts[i]
		if seen >= rank {
			if i == bucketCount-1 {
				// The last bucket is open-ended; its upper bound is the
				// observed maximum.
				return h.max
			}
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}
