package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/ebid"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// Check is one evaluated invariant.
type Check struct {
	Name string
	OK   bool
	Got  string
	Want string
}

// Outcome is the structured result of one scenario run: the measured
// counters plus every invariant verdict.
type Outcome struct {
	Name       string
	ExpectFail bool
	// Passed reports whether every asserted invariant held. A campaign
	// inverts it for ExpectFail scenarios.
	Passed bool
	Checks []Check

	P50, P95, P99 time.Duration
	Over8s        int64
	GoodOps       int64
	BadOps        int64
	// FailuresDelta is BadOps growth after the warmup baseline.
	FailuresDelta int64
	// Goodput is the action-weighted throughput over the last quarter of
	// the measured window (ops/s).
	Goodput       float64
	LostSessions  int
	HumanPages    int
	Shed          int64
	Rejuvenations int64
	BrickRestarts int
	ActiveFaults  int
	Sessions      int
	Seed          int64
}

// Run interprets one scenario spec onto a fresh harness environment and
// evaluates its invariants. Spec errors (bad store names, impossible
// quorums) come back as errors; invariant violations come back inside a
// non-nil Outcome with Passed == false.
func Run(spec *Spec, o experiments.Options) (*Outcome, error) {
	if spec.Seed != nil && !o.SeedSet {
		o.Seed, o.SeedSet = *spec.Seed, true
	}

	c := spec.Cluster
	hcfg := experiments.HarnessConfig{
		Nodes:       c.Nodes,
		Store:       c.Store,
		Shards:      c.Shards,
		Replicas:    c.Replicas,
		WriteQuorum: c.WriteQuorum,
		LeaseTTL:    c.LeaseTTL,
		Node: cluster.NodeConfig{
			Workers:         c.Workers,
			CongestionScale: c.CongestionScale,
		},
	}
	if c.DegradedNode >= 0 {
		deg, w := c.DegradedNode, c.DegradedWorkers
		hcfg.PerNode = func(i int, cfg *cluster.NodeConfig) {
			if i == deg {
				cfg.Workers = w
			}
		}
	}
	h, err := experiments.NewHarness(o, hcfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	out := &Outcome{Name: spec.Name, ExpectFail: spec.ExpectFail, Seed: o.SeedValue()}

	switch c.Routing {
	case "", RoutingRoundRobin:
		// balancer default
	case RoutingLeastLoaded:
		h.LB.SetPolicy(cluster.LeastLoadedPolicy{})
	case RoutingShedLeast:
		h.LB.SetPolicy(&cluster.SheddingPolicy{Inner: cluster.LeastLoadedPolicy{}, QueueWatermark: c.ShedWatermark})
	case RoutingShedRoundRobin:
		h.LB.SetPolicy(&cluster.SheddingPolicy{Inner: cluster.NewRoundRobin(), QueueWatermark: c.ShedWatermark})
	}

	// Control plane: the single observe–decide–act loop every scenario
	// runs, whether or not any controller is attached.
	p := spec.Plane
	tick := p.Tick
	if tick == 0 {
		tick = time.Second
	}
	pcfg := controlplane.Config{Clock: h.Kernel.Now, Fleet: h.LB}
	if h.Bricks != nil {
		pcfg.Cluster = h.Bricks
	}
	plane := controlplane.New(pcfg)

	var rm *recovery.Manager
	if p.Recovery {
		rm = recovery.NewManager(h.Kernel, h.Nodes[0], recovery.Config{Threshold: float64(p.RecoveryThreshold)})
		if h.Bricks != nil {
			rm.Bricks = h.Bricks
		}
		rm.NotifyHuman = func(reason string) { out.HumanPages++ }
		plane.Use(rm)
		if c.Nodes > 1 {
			rm.OnRecoveryStart = func() { plane.ReportNodeRecovery(h.Nodes[0].Name, true) }
			rm.OnRecoveryEnd = func() { plane.ReportNodeRecovery(h.Nodes[0].Name, false) }
		}
	}

	var fleet *controlplane.FleetController
	if c.Nodes > 1 || p.RejuvenateEvery > 0 {
		fleet = controlplane.NewFleetController(h.LB, controlplane.FleetConfig{RejuvenateEvery: o.Scaled(p.RejuvenateEvery)})
		plane.Use(fleet)
	}

	h.PumpPlane(plane, tick)

	onFailure := func(clientID int, op string, resp workload.Response) {
		// Session-loss failures after a recovery are knock-on effects of
		// the recovery itself; reporting them would loop the manager.
		if errors.Is(resp.Err, ebid.ErrNotLoggedIn) {
			return
		}
		// Deferred one kernel step: a recovery fired from inside a plane
		// tick kills in-flight requests, and their failure callbacks must
		// not re-enter the plane while its lock is held.
		h.Kernel.Schedule(0, func() { plane.ReportFailure(op, "client-detector") })
	}

	// Client populations: the base load plus any surges, ids disjoint.
	l := spec.Load
	baseClients := l.Clients
	if l.ScaleClients {
		baseClients = o.ScaledClients(baseClients)
	}
	wcfg := workload.Config{ThinkMean: l.ThinkMean, StartStagger: l.Stagger}
	base := h.NewEmulator(baseClients, 0, wcfg)
	base.OnFailure(onFailure)
	emulators := []*workload.Emulator{base}
	offset := baseClients
	for _, su := range spec.Surges {
		n := su.Clients
		if l.ScaleClients {
			n = o.ScaledClients(n)
		}
		em := h.NewEmulator(n, offset, wcfg)
		em.OnFailure(onFailure)
		emulators = append(emulators, em)
		offset += n
		h.Kernel.Schedule(o.Scaled(su.At), em.Start)
		if su.LeaveAt > 0 {
			h.Kernel.Schedule(o.Scaled(su.LeaveAt), em.Drain)
		}
	}

	// Scheduled fault injections. Injection errors become
	// failed checks, not aborts — a scenario that can't inject its fault
	// must not report a vacuous pass.
	var active []*faults.ActiveFault
	eventChecks := []Check{}
	for i := range spec.Faults {
		f := spec.Faults[i]
		h.Kernel.Schedule(o.Scaled(f.At), func() {
			// Snapshot live sessions first: the zero-loss probe must ask
			// about sessions that existed before the crash, not after.
			var ids []string
			if f.Kind == faults.BrickCrash {
				ids = preEventIDs(h)
			}
			af, err := injectFault(h, f)
			if err != nil {
				eventChecks = append(eventChecks, Check{
					Name: "inject:" + kindToken(f.Kind), Got: err.Error(), Want: "injected",
				})
				return
			}
			active = append(active, af)
			if f.Kind == faults.BrickCrash {
				out.LostSessions += unreadable(h, ids)
			}
		})
	}
	// Timeline: warmup (baseline probe at its end), measured run, stop,
	// flush, cooldown drain.
	warmup, run := o.Scaled(l.Warmup), o.Scaled(l.Run)
	cooldown := l.Cooldown
	if cooldown == 0 {
		cooldown = 30 * time.Second
	}
	var failBase int64
	h.Kernel.Schedule(warmup, func() { failBase = h.Recorder.BadOps() })
	base.Start()
	h.Kernel.RunFor(warmup + run)
	for _, em := range emulators {
		em.Stop()
	}
	for _, em := range emulators {
		em.FlushActions()
	}
	h.Kernel.RunFor(cooldown)

	// Collect.
	out.Checks = append(out.Checks, eventChecks...)
	lat := h.Recorder.Latencies()
	out.P50, out.P95, out.P99 = lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99)
	out.Over8s = h.Recorder.OverThreshold()
	out.GoodOps, out.BadOps = h.Recorder.GoodOps(), h.Recorder.BadOps()
	out.FailuresDelta = out.BadOps - failBase
	out.Goodput = h.Recorder.GoodputOver(warmup+run*3/4, warmup+run)
	out.Shed = h.LB.Shed()
	if fleet != nil {
		out.Rejuvenations = fleet.Rejuvenations()
	}
	if h.Bricks != nil {
		out.BrickRestarts = h.BrickRestarts()
		out.Sessions = h.Bricks.Len()
	}
	for _, af := range active {
		if af.Active() {
			out.ActiveFaults++
		}
	}

	evaluate(spec, out)
	return out, nil
}

// injectFault resolves spec-level sentinels ("@heaviest" victim brick,
// "@live" session) against run-time state and fires the injector.
func injectFault(h *experiments.Harness, f FaultSpec) (*faults.ActiveFault, error) {
	comp := f.Component
	if comp == "@heaviest" {
		if h.Bricks == nil {
			return nil, fmt.Errorf("@heaviest needs the brick cluster")
		}
		bricks := h.Bricks.Bricks()
		victim := bricks[0]
		for _, b := range bricks {
			if b.Up() && b.Len() > victim.Len() {
				victim = b
			}
		}
		comp = victim.Name()
	}
	sid := f.Session
	if sid == "@live" {
		ids := preEventIDs(h)
		if len(ids) == 0 {
			return nil, fmt.Errorf("@live: no live sessions to corrupt")
		}
		sid = ids[0]
	}
	inj := h.Injectors[f.Node]
	return inj.Inject(faults.Spec{
		Kind:        f.Kind,
		Component:   comp,
		Mode:        f.Mode,
		LeakPerCall: f.LeakPerCall,
		SessionID:   sid,
		Table:       f.Table,
		RowKey:      f.RowKey,
		Column:      f.Column,
	})
}

// preEventIDs snapshots the brick cluster's live session ids, sorted so
// sentinel resolution is deterministic.
func preEventIDs(h *experiments.Harness) []string {
	if h.Bricks == nil {
		return nil
	}
	ids := h.Bricks.SessionIDs()
	sort.Strings(ids)
	return ids
}

// unreadable counts sessions from ids that can no longer be read — the
// zero-session-loss probe the brick figures run after every crash.
func unreadable(h *experiments.Harness, ids []string) int {
	lost := 0
	for _, id := range ids {
		if _, err := h.Bricks.Read(id); err != nil {
			lost++
		}
	}
	return lost
}

// evaluate turns the [assert] table into Checks and the overall verdict.
func evaluate(spec *Spec, out *Outcome) {
	a := spec.Assert
	add := func(name string, ok bool, got, want string) {
		out.Checks = append(out.Checks, Check{Name: name, OK: ok, Got: got, Want: want})
	}
	if a.LostSessions != nil {
		add("lost_sessions", out.LostSessions == *a.LostSessions,
			fmt.Sprint(out.LostSessions), fmt.Sprint(*a.LostSessions))
	}
	if a.HumanPages != nil {
		add("human_pages", out.HumanPages == *a.HumanPages,
			fmt.Sprint(out.HumanPages), fmt.Sprint(*a.HumanPages))
	}
	if a.MaxP99 > 0 {
		add("max_p99", out.P99 <= a.MaxP99, out.P99.String(), "<= "+a.MaxP99.String())
	}
	if a.MaxFailures != nil {
		add("max_failures", out.FailuresDelta <= *a.MaxFailures,
			fmt.Sprint(out.FailuresDelta), fmt.Sprintf("<= %d", *a.MaxFailures))
	}
	if a.MinGoodput > 0 {
		add("min_goodput", out.Goodput >= a.MinGoodput,
			fmt.Sprintf("%.2f", out.Goodput), fmt.Sprintf(">= %.2f", a.MinGoodput))
	}
	if a.MinGoodOps > 0 {
		add("min_good_ops", out.GoodOps >= a.MinGoodOps,
			fmt.Sprint(out.GoodOps), fmt.Sprintf(">= %d", a.MinGoodOps))
	}
	if a.MinBrickRestarts > 0 {
		add("min_brick_restarts", out.BrickRestarts >= a.MinBrickRestarts,
			fmt.Sprint(out.BrickRestarts), fmt.Sprintf(">= %d", a.MinBrickRestarts))
	}
	if a.MinRejuvenations > 0 {
		add("min_rejuvenations", out.Rejuvenations >= int64(a.MinRejuvenations),
			fmt.Sprint(out.Rejuvenations), fmt.Sprintf(">= %d", a.MinRejuvenations))
	}
	if a.MinShed != nil {
		add("min_shed", out.Shed >= *a.MinShed,
			fmt.Sprint(out.Shed), fmt.Sprintf(">= %d", *a.MinShed))
	}
	if a.MaxShed != nil {
		add("max_shed", out.Shed <= *a.MaxShed,
			fmt.Sprint(out.Shed), fmt.Sprintf("<= %d", *a.MaxShed))
	}
	if a.MaxOver8s != nil {
		add("max_over_8s", out.Over8s <= *a.MaxOver8s,
			fmt.Sprint(out.Over8s), fmt.Sprintf("<= %d", *a.MaxOver8s))
	}
	if a.FaultsCleared != nil {
		add("faults_cleared", (out.ActiveFaults == 0) == *a.FaultsCleared,
			fmt.Sprintf("%d active", out.ActiveFaults), fmt.Sprintf("cleared=%t", *a.FaultsCleared))
	}
	out.Passed = true
	for _, ch := range out.Checks {
		if !ch.OK {
			out.Passed = false
		}
	}
}

// String renders the outcome as a short report.
func (o *Outcome) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !o.Passed {
		verdict = "FAIL"
	}
	if o.ExpectFail {
		verdict += " (negative control: expected FAIL)"
	}
	fmt.Fprintf(&b, "scenario %s: %s (seed %d)\n", o.Name, verdict, o.Seed)
	fmt.Fprintf(&b, "  ops good/bad %d/%d (Δfail %d)  p50/p95/p99 %v/%v/%v  goodput %.2f ops/s\n",
		o.GoodOps, o.BadOps, o.FailuresDelta,
		o.P50.Round(time.Millisecond), o.P95.Round(time.Millisecond), o.P99.Round(time.Millisecond), o.Goodput)
	if o.Sessions > 0 || o.BrickRestarts > 0 || o.LostSessions > 0 {
		fmt.Fprintf(&b, "  bricks: %d sessions, restarts %d, lost %d\n",
			o.Sessions, o.BrickRestarts, o.LostSessions)
	}
	if o.Shed > 0 || o.Rejuvenations > 0 || o.HumanPages > 0 {
		fmt.Fprintf(&b, "  shed %d, rejuvenations %d, human pages %d\n", o.Shed, o.Rejuvenations, o.HumanPages)
	}
	for _, c := range o.Checks {
		mark := "ok"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%4s] %-18s got %s want %s\n", mark, c.Name, c.Got, c.Want)
	}
	return strings.TrimRight(b.String(), "\n")
}
