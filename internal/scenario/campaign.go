package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// LoadFile parses one spec file.
func LoadFile(path string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, string(src))
}

// LoadDir parses every *.toml under dir (sorted by filename) and rejects
// duplicate scenario names — two specs answering to one name would make
// campaign reports ambiguous.
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.toml"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.toml specs under %s", dir)
	}
	sort.Strings(paths)
	var specs []*Spec
	byName := map[string]string{}
	for _, p := range paths {
		s, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("%s: duplicate scenario name %q (already defined in %s)", p, s.Name, prev)
		}
		byName[s.Name] = p
		specs = append(specs, s)
	}
	return specs, nil
}

// Result is one campaign entry: the scenario's outcome plus the campaign
// verdict, which inverts Passed for negative controls (an ExpectFail
// scenario proves the assertion machinery fires by failing).
type Result struct {
	Outcome *Outcome
	// Pass is the campaign-level verdict.
	Pass bool
}

// Campaign is a batch of scenario runs.
type Campaign struct {
	Results []Result
	Elapsed time.Duration
}

// Passed reports whether every scenario met its campaign verdict.
func (c *Campaign) Passed() bool {
	for _, r := range c.Results {
		if !r.Pass {
			return false
		}
	}
	return len(c.Results) > 0
}

// RunCampaign runs each spec in order. Run errors (unbuildable
// environments) are returned immediately — they mean the spec is wrong,
// not that an invariant failed.
func RunCampaign(specs []*Spec, o experiments.Options) (*Campaign, error) {
	c := &Campaign{}
	start := time.Now()
	for _, s := range specs {
		out, err := Run(s, o)
		if err != nil {
			return nil, err
		}
		c.Results = append(c.Results, Result{Outcome: out, Pass: out.Passed != out.ExpectFail})
	}
	c.Elapsed = time.Since(start).Round(time.Millisecond)
	return c, nil
}

// Table renders the campaign as a pass/fail matrix.
func (c *Campaign) Table() string {
	var b strings.Builder
	w := 8
	for _, r := range c.Results {
		if len(r.Outcome.Name) > w {
			w = len(r.Outcome.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-7s  %s\n", w, "scenario", "verdict", "detail")
	for _, r := range c.Results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		detail := summarizeChecks(r.Outcome)
		fmt.Fprintf(&b, "%-*s  %-7s  %s\n", w, r.Outcome.Name, verdict, detail)
	}
	n := 0
	for _, r := range c.Results {
		if r.Pass {
			n++
		}
	}
	fmt.Fprintf(&b, "%d/%d scenarios passed\n", n, len(c.Results))
	return b.String()
}

func summarizeChecks(o *Outcome) string {
	if o.ExpectFail {
		if o.Passed {
			return "negative control did NOT fail — assertions are not firing"
		}
		return "negative control failed as designed"
	}
	var bad []string
	for _, ch := range o.Checks {
		if !ch.OK {
			bad = append(bad, fmt.Sprintf("%s got %s want %s", ch.Name, ch.Got, ch.Want))
		}
	}
	if len(bad) == 0 {
		return fmt.Sprintf("%d checks ok", len(o.Checks))
	}
	return strings.Join(bad, "; ")
}

// jsonCheck/jsonResult shape the machine-readable artifact CI uploads.
type jsonCheck struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Got  string `json:"got"`
	Want string `json:"want"`
}

type jsonResult struct {
	Scenario   string      `json:"scenario"`
	Pass       bool        `json:"pass"`
	ExpectFail bool        `json:"expect_fail,omitempty"`
	Seed       int64       `json:"seed"`
	GoodOps    int64       `json:"good_ops"`
	BadOps     int64       `json:"bad_ops"`
	P99Millis  float64     `json:"p99_ms"`
	Checks     []jsonCheck `json:"checks"`
}

// JSON renders the campaign matrix as an artifact blob.
func (c *Campaign) JSON() ([]byte, error) {
	out := struct {
		Passed  bool         `json:"passed"`
		Results []jsonResult `json:"results"`
	}{Passed: c.Passed()}
	for _, r := range c.Results {
		o := r.Outcome
		jr := jsonResult{
			Scenario:   o.Name,
			Pass:       r.Pass,
			ExpectFail: o.ExpectFail,
			Seed:       o.Seed,
			GoodOps:    o.GoodOps,
			BadOps:     o.BadOps,
			P99Millis:  float64(o.P99) / float64(time.Millisecond),
		}
		for _, ch := range o.Checks {
			jr.Checks = append(jr.Checks, jsonCheck{Name: ch.Name, OK: ch.OK, Got: ch.Got, Want: ch.Want})
		}
		out.Results = append(out.Results, jr)
	}
	return json.MarshalIndent(out, "", "  ")
}

// MatrixSpecs generates the builtin fault × store × routing campaign:
// representative Table-2 fault kinds (plus the brick extensions) crossed
// with both session-store backends and both ends of the routing-policy
// spectrum. Combinations the substrate rules out (brick faults without
// the brick cluster) are skipped rather than emitted as expected
// failures, so every generated scenario asserts real invariants.
func MatrixSpecs() []*Spec {
	type kindCase struct {
		token      string
		component  string
		mode       string
		session    string
		leak       int64
		bricksOnly bool
	}
	kinds := []kindCase{
		{token: "deadlock", component: "MakeBid"},
		{token: "infinite-loop", component: "ViewItem"},
		{token: "transient-exception", component: "BrowseCategories"},
		{token: "corrupt-naming", component: "ViewUserInfo", mode: "null"},
		{token: "app-memory-leak", component: "ViewItem", leak: 1 << 20},
		{token: "brick-crash", component: "@heaviest", bricksOnly: true},
		{token: "brick-slow", bricksOnly: true},
		{token: "corrupt-ssm", session: "@live", bricksOnly: true},
	}
	stores := []string{"fasts", "ssm-cluster"}
	routings := []string{RoutingRoundRobin, RoutingShedLeast}

	var specs []*Spec
	for _, kc := range kinds {
		for _, store := range stores {
			if kc.bricksOnly && store != "ssm-cluster" {
				continue
			}
			for _, routing := range routings {
				s := &Spec{
					Name: fmt.Sprintf("matrix/%s/%s/%s", kc.token, store, routing),
					Description: fmt.Sprintf("builtin matrix: %s under %s store, %s routing",
						kc.token, store, routing),
					Cluster: ClusterSpec{
						Nodes:        2,
						Store:        store,
						Routing:      routing,
						DegradedNode: -1,
					},
					Load: LoadSpec{
						Clients:      120,
						Warmup:       time.Minute,
						Run:          2 * time.Minute,
						ScaleClients: true,
					},
					Plane: PlaneSpec{Recovery: true, RecoveryThreshold: 3},
					Faults: []FaultSpec{{
						At:          70 * time.Second,
						Kind:        kindNames[kc.token],
						Component:   kc.component,
						Mode:        faults.Mode(kc.mode),
						Session:     kc.session,
						LeakPerCall: kc.leak,
					}},
				}
				if routing == RoutingShedLeast {
					s.Cluster.ShedWatermark = 64
				}
				zero := 0
				s.Assert.HumanPages = &zero
				s.Assert.MinGoodOps = 200
				if store == "ssm-cluster" {
					s.Assert.LostSessions = &zero
				}
				specs = append(specs, s)
			}
		}
	}
	return specs
}
