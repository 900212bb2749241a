package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ebid"
)

var testDS = dataset{users: 250, items: 3300}

// The servers must see the same requests at the same intended times for
// the same seed, and different ones for another.
func TestStreamsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.gen(7, 3000, w.vusers, w.ds)
		b := w.gen(7, 3000, w.vusers, w.ds)
		c := w.gen(8, 3000, w.vusers, w.ds)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
		if len(a.ops) != 3000 {
			t.Errorf("%s: %d ops, want 3000", w.name, len(a.ops))
		}
	}
	a := poissonArrivals(7, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, poissonArrivals(7, 1000, 2*time.Second)) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, poissonArrivals(8, 1000, 2*time.Second)) {
		t.Error("different seeds gave the same arrival schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d is earlier than its predecessor", i)
		}
	}
}

// A second step must directly follow its first step among its user's ops,
// or "skip the second step when the first failed" would skip the wrong op.
func TestSecondStepsFollowTheirFirstStep(t *testing.T) {
	first := map[string]string{
		ebid.CommitBid: ebid.MakeBid, ebid.CommitBuyNow: ebid.DoBuyNow,
		ebid.CommitUserFeedback: ebid.LeaveUserFeedback, ebid.RegisterNewItem: ebid.OpSellForm,
	}
	for _, gen := range []func(int64, int, int, dataset) *stream{genBid, genMix} {
		st := gen(3, 20000, 64, testDS)
		prev := map[int32]string{}
		seen := 0
		for _, o := range st.ops {
			if want, ok := first[o.name]; ok {
				seen++
				if !o.step2 || prev[o.user] != want {
					t.Fatalf("%s of user %d follows %q, want %q (step2=%v)", o.name, o.user, prev[o.user], want, o.step2)
				}
			} else if o.step2 {
				t.Fatalf("%s is marked as a second step", o.name)
			}
			prev[o.user] = o.name
		}
		if seen == 0 {
			t.Error("stream has no two-step flows")
		}
	}
}

func TestBrowseIsReadOnlyAndSkewed(t *testing.T) {
	st := genBrowse(1, 20000, 64, dataset{users: 1000, items: 8000})
	hits := map[string]int{}
	for _, o := range st.ops {
		if !o.idem {
			t.Fatalf("browse stream holds non-idempotent %s", o.name)
		}
		if o.name == ebid.ViewItem {
			hits[o.path]++
		}
	}
	most := 0
	for _, n := range hits {
		most = max(most, n)
	}
	// Uniform popularity would give each of 8000 items about one view.
	if most < 100 {
		t.Errorf("most viewed item has %d of ~8000 views; want a Zipf head", most)
	}
}

func TestRecoveryCounts(t *testing.T) {
	if u, r := recoveryCounts(defaultSeconds); u != urbCount || r != restartCount {
		t.Errorf("at the frozen run length: %d microreboots, %d restarts; want %d, %d", u, r, urbCount, restartCount)
	}
	if u, r := recoveryCounts(4); u != 2 || r != 1 {
		t.Errorf("smoke: %d microreboots, %d restarts; want 2, 1", u, r)
	}
}
