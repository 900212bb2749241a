package detect

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/store/db"
	"repro/internal/store/session"
	"repro/internal/workload"
)

func TestClientSideClassification(t *testing.T) {
	d := ClientSide{}
	cases := []struct {
		name     string
		resp     workload.Response
		loggedIn bool
		want     FailureType
	}{
		{"ok", workload.Response{Body: "<html>item 3: thing</html>"}, false, None},
		{"network", workload.Response{Err: errors.New("cluster: connection refused")}, false, NetworkError},
		{"http503", workload.Response{Err: errors.New("cluster: 503 service unavailable")}, false, HTTPError},
		{"generic error", workload.Response{Err: errors.New("boom")}, false, HTTPError},
		{"keyword exception", workload.Response{Body: "<html>NullPointerException at ...</html>"}, false, KeywordMatch},
		{"keyword failed", workload.Response{Body: "<html>operation Failed</html>"}, false, KeywordMatch},
		{"negative id", workload.Response{Body: "<html>user -42 profile</html>"}, false, AppSpecific},
		{"login prompt while logged in", workload.Response{Body: "<html>please log in to bid</html>"}, true, AppSpecific},
		{"login prompt while logged out", workload.Response{Body: "<html>please log in to bid</html>"}, false, None},
	}
	for _, c := range cases {
		v := d.Classify("x", c.resp, c.loggedIn)
		if v.Type != c.want || v.Faulty != (c.want != None) {
			t.Errorf("%s: verdict = %+v, want type %q", c.name, v, c.want)
		}
	}
}

func newGoodApp(t *testing.T) *ebid.App {
	t.Helper()
	d := db.New(nil)
	cfg := ebid.DatasetConfig{Users: 50, Items: 100, BidsPerItem: 3, Categories: 5, Regions: 5, OldItems: 10}
	if err := ebid.LoadDataset(d, cfg); err != nil {
		t.Fatal(err)
	}
	app, err := ebid.New(d, session.NewFastS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestComparisonDetectsWrongData(t *testing.T) {
	good := newGoodApp(t)
	cmp := &Comparison{Good: good}
	call := &core.Call{Op: ebid.ViewItem, Args: &ebid.OpArgs{Item: 3}}

	// Matching response: clean verdict.
	body, err := good.Execute(context.Background(), &core.Call{Op: ebid.ViewItem, Args: call.Args})
	if err != nil {
		t.Fatal(err)
	}
	if v := cmp.Check(call, workload.Response{Body: string(body)}); v.Faulty {
		t.Fatalf("identical responses flagged: %+v", v)
	}

	// Surreptitiously wrong item name: only comparison can see it.
	wrong := workload.Response{Body: "<html>item 3: SWAPPED-NAME, max bid 7.00, 3 bids</html>"}
	if v := cmp.Check(call, wrong); !v.Faulty || v.Type != Discrepancy {
		t.Fatalf("wrong data not flagged: %+v", v)
	}

	// Error-status mismatch.
	if v := cmp.Check(call, workload.Response{Err: errors.New("x")}); !v.Faulty {
		t.Fatal("error mismatch not flagged")
	}
}

func TestComparisonToleratesTimingNondeterminism(t *testing.T) {
	good := newGoodApp(t)
	cmp := &Comparison{Good: good}
	call := &core.Call{Op: ebid.ViewItem, Args: &ebid.OpArgs{Item: 3}}
	body, _ := good.Execute(context.Background(), &core.Call{Op: ebid.ViewItem, Args: call.Args})
	// Perturb only a dollar amount (timing-dependent field): the
	// normalizer masks decimal amounts before comparing.
	perturbed := workload.Response{Body: replaceFirstAmount(string(body))}
	if v := cmp.Check(call, perturbed); v.Faulty {
		t.Fatalf("timing nondeterminism flagged as failure: %+v", v)
	}
}

func replaceFirstAmount(s string) string {
	return volatile.ReplaceAllString(s, "999.99")
}

func TestSamplerStrideAndEligibility(t *testing.T) {
	good := newGoodApp(t)
	var flagged []string
	s := &Sampler{
		Comp:  &Comparison{Good: good},
		Every: 4,
		OnDiscrepancy: func(op string, v Verdict) {
			flagged = append(flagged, op+"/"+v.Detail)
		},
	}

	call := &core.Call{Op: ebid.ViewItem, Args: &ebid.OpArgs{Item: 3}}
	body, err := good.Execute(context.Background(), &core.Call{Op: ebid.ViewItem, Args: call.Args})
	if err != nil {
		t.Fatal(err)
	}

	// Ineligible traffic is never replayed: writes would fork the
	// known-good instance, session reads cannot replay without state,
	// and failures are the client-side detector's job — a transient 503
	// replayed here would masquerade as corruption.
	s.Observe(&core.Call{Op: ebid.CommitBid}, []byte("x"), nil)
	s.Observe(&core.Call{Op: ebid.AboutMe}, []byte("x"), nil)
	s.Observe(call, nil, errors.New("503 retry after"))
	s.Observe(nil, nil, nil)
	if seen, checked, _ := s.Stats(); seen != 0 || checked != 0 {
		t.Fatalf("ineligible ops counted: seen=%d checked=%d", seen, checked)
	}

	// Eight eligible ops at stride 4: exactly two replays.
	for i := 0; i < 8; i++ {
		s.Observe(call, body, nil)
	}
	if seen, checked, flaggedN := s.Stats(); seen != 8 || checked != 2 || flaggedN != 0 {
		t.Fatalf("stride accounting: seen=%d checked=%d flagged=%d, want 8/2/0", seen, checked, flaggedN)
	}

	// A corrupted sampled response is flagged and reported.
	for i := 0; i < 4; i++ {
		s.Observe(call, []byte("<html>item 3: SWAPPED, max bid 7.00</html>"), nil)
	}
	if _, _, flaggedN := s.Stats(); flaggedN != 1 {
		t.Fatalf("flagged = %d, want 1 (one of the four corrupted ops sampled)", flaggedN)
	}
	if len(flagged) != 1 || flagged[0] != ebid.ViewItem+"/body differs from known-good instance" {
		t.Fatalf("OnDiscrepancy = %v", flagged)
	}
}
