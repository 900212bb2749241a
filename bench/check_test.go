package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The bid ledger's checker must fire when an acknowledged bid is missing
// from the history, and only then.
func TestLedgerCatchesALostAcknowledgedBid(t *testing.T) {
	l, err := newBidLedger(testDS)
	if err != nil {
		t.Fatal(err)
	}
	base, err := l.seedBids(7)
	if err != nil || base == 0 {
		t.Fatalf("seed bids of item 7: %d, %v", base, err)
	}
	l.record(7, true)
	l.record(7, true)
	l.record(7, false) // sent, answered with a failure: may or may not have landed
	shows := func(perBackend ...int) func(int64) ([]int, error) {
		return func(int64) ([]int, error) { return perBackend, nil }
	}
	if v := l.verify(shows(base+2), 0, true); len(v) != 0 {
		t.Errorf("both acknowledged bids present, yet: %v", v)
	}
	if v := l.verify(shows(base+3), 0, true); len(v) != 0 {
		t.Errorf("the unacknowledged bid landed too, which is allowed, yet: %v", v)
	}
	// Two backends with a database each: the bids may sit on either.
	if v := l.verify(shows(base+1, base+1), 0, true); len(v) != 0 {
		t.Errorf("one bid on each backend, yet: %v", v)
	}
	v := l.verify(shows(base+1), 0, false)
	if len(v) != 1 || !strings.Contains(v[0], "acknowledged write was lost") {
		t.Errorf("one acknowledged bid missing, checker said: %v", v)
	}
	if v := l.verify(shows(base+4), 0, true); len(v) != 1 {
		t.Errorf("more bids than were sent, checker said: %v", v)
	}
	if v := l.verify(shows(base+4), 0, false); len(v) != 0 {
		t.Errorf("while load continues a larger count is not a violation, yet: %v", v)
	}
}

func TestParseBidHistory(t *testing.T) {
	if n, err := parseBidHistory("<html>item 7 bid history: 12 bids</html>\n"); err != nil || n != 12 {
		t.Errorf("%d, %v", n, err)
	}
	if _, err := parseBidHistory("<html>eBid home page</html>"); err == nil {
		t.Error("no error for a page that is not a bid history")
	}
}

// BENCHMARK.json is written by hand; the command's output must keep to it.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	e2e := contractMetrics(false)
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(spec.EndToEnd), len(e2e))
	}
	for i, md := range e2e {
		got := spec.EndToEnd[i]
		if got.Name != md.name || got.Unit != md.unit || got.Better != md.better || got.Bound != md.bound {
			t.Errorf("end_to_end[%d] = %+v, the command has %+v", i, got, md)
		}
	}
	layers := contractMetrics(true)
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(spec.PerLayer), len(layers))
	}
	for i, md := range layers {
		got := spec.PerLayer[i]
		if got.Name != md.name || got.Unit != md.unit || got.Better != md.better {
			t.Errorf("per_layer[%d] = %+v, the command has %+v", i, got, md)
		}
	}
}
