package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func op(start, end time.Duration, name, group string, ok bool) Op {
	return Op{Start: start, End: end, Name: name, Group: group, OK: ok}
}

func TestActionGoodBadBuckets(t *testing.T) {
	r := NewRecorder(time.Second, 8*time.Second)
	r.Action([]Op{
		op(0, 100*time.Millisecond, "Login", "User Account", true),
		op(1200*time.Millisecond, 1300*time.Millisecond, "ViewItem", "Browse/View", true),
	}, false)
	r.Action([]Op{
		op(2*time.Second, 2*time.Second+50*time.Millisecond, "MakeBid", "Bid/Buy/Sell", true),
		op(3*time.Second, 3*time.Second+50*time.Millisecond, "CommitBid", "Bid/Buy/Sell", false),
	}, true)

	good, bad := r.Buckets()
	if good[0] != 1 || good[1] != 1 {
		t.Fatalf("good buckets = %v, want 1 at [0] and [1]", good)
	}
	if bad[2] != 1 || bad[3] != 1 {
		t.Fatalf("bad buckets = %v, want 1 at [2] and [3]", bad)
	}
	if r.GoodOps() != 2 || r.BadOps() != 2 {
		t.Fatalf("ops = %d good / %d bad, want 2/2", r.GoodOps(), r.BadOps())
	}
	if r.GoodActions() != 1 || r.FailedActions() != 1 {
		t.Fatalf("actions = %d good / %d failed, want 1/1", r.GoodActions(), r.FailedActions())
	}
}

func TestRetroactiveMarking(t *testing.T) {
	// All ops in a failed action count as bad even if they individually
	// succeeded — the defining property of Taw.
	r := NewRecorder(time.Second, 0)
	ops := []Op{
		op(0, time.Millisecond, "a", "g", true),
		op(time.Second, time.Second+time.Millisecond, "b", "g", true),
		op(2*time.Second, 2*time.Second+time.Millisecond, "c", "g", false),
	}
	r.Action(ops, true)
	if r.GoodOps() != 0 {
		t.Fatalf("good ops = %d, want 0", r.GoodOps())
	}
	if r.BadOps() != 3 {
		t.Fatalf("bad ops = %d, want 3", r.BadOps())
	}
}

func TestGoodputOver(t *testing.T) {
	r := NewRecorder(time.Second, 0)
	for i := 0; i < 10; i++ {
		start := time.Duration(i) * time.Second
		r.Action([]Op{op(start, start+10*time.Millisecond, "x", "g", true)}, false)
	}
	got := r.GoodputOver(0, 10*time.Second)
	if got < 0.99 || got > 1.01 {
		t.Fatalf("goodput = %v, want ~1.0", got)
	}
}

func TestOverThreshold(t *testing.T) {
	r := NewRecorder(time.Second, 8*time.Second)
	r.Action([]Op{op(0, 9*time.Second, "slow", "g", true)}, false)
	r.Action([]Op{op(0, time.Second, "fast", "g", true)}, false)
	if r.OverThreshold() != 1 {
		t.Fatalf("OverThreshold = %d, want 1", r.OverThreshold())
	}
}

func TestMeanLatencySeries(t *testing.T) {
	r := NewRecorder(time.Second, 0)
	r.Action([]Op{
		op(0, 20*time.Millisecond, "a", "g", true),
		op(100*time.Millisecond, 140*time.Millisecond, "b", "g", true),
	}, false)
	series := r.MeanLatencySeries()
	if series[0] != 30*time.Millisecond {
		t.Fatalf("mean latency bucket 0 = %v, want 30ms", series[0])
	}
}

func TestUnavailabilityMerging(t *testing.T) {
	r := NewRecorder(time.Second, 0)
	r.Action([]Op{op(time.Second, 2*time.Second, "a", "Search", false)}, true)
	r.Action([]Op{op(1500*time.Millisecond, 3*time.Second, "b", "Search", false)}, true)
	r.Action([]Op{op(10*time.Second, 11*time.Second, "c", "Search", false)}, true)
	iv := r.Unavailability()["Search"]
	if len(iv) != 2 {
		t.Fatalf("intervals = %v, want 2 merged intervals", iv)
	}
	if iv[0].From != time.Second || iv[0].To != 3*time.Second {
		t.Fatalf("first interval = %v, want [1s,3s)", iv[0])
	}
	if iv[1].Length() != time.Second {
		t.Fatalf("second interval length = %v, want 1s", iv[1].Length())
	}
}

// Property: good + bad operation totals equal the number of ops submitted.
func TestPropertyTawConservation(t *testing.T) {
	f := func(counts []uint8, fails []bool) bool {
		r := NewRecorder(time.Second, 0)
		var want int64
		for i, c := range counts {
			n := int(c%7) + 1
			ops := make([]Op, n)
			for j := range ops {
				st := time.Duration(i) * 100 * time.Millisecond
				ops[j] = op(st, st+time.Millisecond, "x", "g", true)
			}
			failed := i < len(fails) && fails[i]
			r.Action(ops, failed)
			want += int64(n)
		}
		return r.GoodOps()+r.BadOps() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	samples := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond,
	}
	for _, s := range samples {
		h.Observe(s)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Mean() != 30*time.Millisecond {
		t.Fatalf("mean = %v, want 30ms", h.Mean())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 50*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	q := h.Quantile(0.5)
	if q < 25*time.Millisecond || q > 40*time.Millisecond {
		t.Fatalf("median estimate %v too far from 30ms", q)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := time.Duration(q*1000) * time.Millisecond
		got := h.Quantile(q)
		ratio := float64(got) / float64(want)
		if ratio < 0.85 || ratio > 1.20 {
			t.Fatalf("q=%v: got %v, want ~%v (ratio %v)", q, got, want, ratio)
		}
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-time.Second) // clamped into first bucket
	h.Observe(time.Hour)    // clamped into last bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Quantile(1.0) != time.Hour {
		t.Fatalf("q1.0 = %v, want capped at max", h.Quantile(1.0))
	}
}

// Property: histogram quantile is monotone in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(time.Duration(v) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
