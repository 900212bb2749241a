package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- Figure 3

// Figure3Row is one cluster size's failover outcome.
type Figure3Row struct {
	Nodes int
	// Failed requests and sessions failed over, for both recovery modes.
	MicroFailed, RestartFailed     int64
	MicroSessions, RestartSessions int
	// Percent of total requests failed.
	MicroPct, RestartPct float64
}

// Figure3Result is failover under normal load across cluster sizes.
type Figure3Result struct{ Rows []Figure3Row }

// Figure3 runs the failover experiment: a µRB-curable fault in the most
// frequently called component of one node; the load balancer redirects
// that node's traffic while it recovers. With the default FastS store,
// session state is node local, so redirected session requests fail;
// Options.ClusterStore = "ssm-cluster" reruns the figure with a
// cross-node SSM brick cluster whose sessions survive the failover (the
// paper's §6.1 SSM variant).
func Figure3(o Options) *Figure3Result {
	sizes := []int{2, 4, 6, 8}
	if o.Quick {
		sizes = []int{2, 4}
	}
	res := &Figure3Result{}
	for _, n := range sizes {
		micro, microSess, microTotal := runFigure3(o, n, false)
		restart, restartSess, restartTotal := runFigure3(o, n, true)
		row := Figure3Row{
			Nodes:           n,
			MicroFailed:     micro,
			RestartFailed:   restart,
			MicroSessions:   microSess,
			RestartSessions: restartSess,
		}
		if microTotal > 0 {
			row.MicroPct = 100 * float64(micro) / float64(microTotal)
		}
		if restartTotal > 0 {
			row.RestartPct = 100 * float64(restart) / float64(restartTotal)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runFigure3(o Options, nNodes int, useRestart bool) (failed int64, sessionsFailedOver int, total int64) {
	h := newClusterHarness(o, nNodes, cluster.NodeConfig{})
	em := h.NewEmulator(nNodes*o.clients(500), 0, workload.Config{})
	em.Start()
	warm := o.scale(3 * time.Minute)
	h.Kernel.RunFor(warm)

	failOverNode0(h, useRestart)

	h.Kernel.RunFor(o.scale(10*time.Minute) - warm - 2*time.Second)
	em.Stop()
	em.FlushActions()
	h.Kernel.RunFor(30 * time.Second)
	return h.Recorder.BadOps(), h.LB.SessionsFailedOver(),
		h.Recorder.GoodOps() + h.Recorder.BadOps()
}

// newClusterHarness builds the cluster Figures 3/4 and Section 6.1 run
// on: nNodes sharing one database and the o.ClusterStore session store
// behind a load balancer.
func newClusterHarness(o Options, nNodes int, node cluster.NodeConfig) *Harness {
	h, err := NewHarness(o, HarnessConfig{Nodes: nNodes, Store: o.ClusterStore, Node: node})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return h
}

// failOverNode0 is the failover sequence of Figures 3 and 4: inject the
// µRB-curable fault into node0, allow 2 s of detection latency, then
// recover node0 by microreboot or process restart while a control-plane
// fleet controller drains its traffic — experiments publish node-recovery
// signals, exactly as a recovery manager whose OnRecoveryStart/End call
// Plane.ReportNodeRecovery would, instead of flipping the balancer
// directly.
func failOverNode0(h *Harness, useRestart bool) {
	bad := h.Nodes[0]
	if _, err := h.Injectors[0].Inject(faults.Spec{
		Kind: faults.TransientException, Component: ebid.BrowseCategories,
	}); err != nil {
		panic(err)
	}
	h.Kernel.RunFor(2 * time.Second)
	h.LB.ResetFailoverStats() // Figure 3 counts sessions failed over from here
	plane := controlplane.New(controlplane.Config{Clock: h.Kernel.Now, Fleet: h.LB})
	plane.Use(controlplane.NewFleetController(h.LB, controlplane.FleetConfig{}))
	plane.ReportNodeRecovery(bad.Name, true)
	var rb *core.Reboot
	var err error
	if useRestart {
		rb, err = bad.RebootScope(core.ScopeProcess)
	} else {
		rb, err = bad.Microreboot(ebid.BrowseCategories)
	}
	if err != nil {
		panic(err)
	}
	h.Kernel.Schedule(rb.Duration(), func() { plane.ReportNodeRecovery(bad.Name, false) })
}

// String renders the failover table.
func (r *Figure3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: failover under normal load (paper: µRB ≈162, restart ≈2,280 failed requests)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %14s %14s %10s %10s\n",
		"nodes", "µRB failed", "rst failed", "µRB sessions", "rst sessions", "µRB %", "rst %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %12d %12d %14d %14d %9.2f%% %9.2f%%\n",
			row.Nodes, row.MicroFailed, row.RestartFailed,
			row.MicroSessions, row.RestartSessions, row.MicroPct, row.RestartPct)
	}
	return b.String()
}

// ------------------------------------------------------ Figure 4 / Table 4

// Figure4Row is one cluster size's doubled-load failover outcome.
type Figure4Row struct {
	Nodes int
	// Peak mean response time during the recovery window, per mode.
	MicroPeak, RestartPeak time.Duration
	// Requests exceeding 8 s (Table 4).
	MicroOver8s, RestartOver8s int64
	// Response-time series (1-second buckets) for plotting.
	MicroSeries, RestartSeries []time.Duration
}

// Figure4Result is failover under doubled load (plus Table 4's >8 s
// counts).
type Figure4Result struct {
	Rows []Figure4Row
	// PaperOver8s reproduces Table 4 for reference.
	PaperRestartOver8s map[int]int
	PaperMicroOver8s   map[int]int
}

// Figure4 doubles the client population (1,000/node), lets the cluster
// stabilize, then fails one node over during recovery and tracks response
// times.
func Figure4(o Options) *Figure4Result {
	sizes := []int{2, 4, 6, 8}
	if o.Quick {
		sizes = []int{2, 4}
	}
	res := &Figure4Result{
		PaperRestartOver8s: map[int]int{2: 3227, 4: 530, 6: 55, 8: 9},
		PaperMicroOver8s:   map[int]int{2: 3, 4: 0, 6: 0, 8: 0},
	}
	for _, n := range sizes {
		mp, mo, ms := runFigure4(o, n, false)
		rp, ro, rs := runFigure4(o, n, true)
		res.Rows = append(res.Rows, Figure4Row{
			Nodes:     n,
			MicroPeak: mp, RestartPeak: rp,
			MicroOver8s: mo, RestartOver8s: ro,
			MicroSeries: ms, RestartSeries: rs,
		})
	}
	return res
}

func runFigure4(o Options, nNodes int, useRestart bool) (peak time.Duration, over8s int64, series []time.Duration) {
	// The overload dynamics require the full doubled population (the
	// paper's point is that a redirected node's worth of load pushes the
	// remaining nodes past saturation at small cluster sizes), so quick
	// mode shortens only the timeline, not the client count. Worker
	// pools are sized so per-node capacity sits just above the doubled
	// per-node load — the regime the paper's un-admission-controlled
	// servers operate in.
	h := newClusterHarness(o, nNodes, cluster.NodeConfig{Workers: 4, CongestionScale: 400})
	em := h.NewEmulator(nNodes*1000, 0, workload.Config{})
	em.Start()
	// Let the system stabilize at the higher load before injecting
	// (the paper extends the run to 13 minutes for this reason).
	warm := o.scale(5 * time.Minute)
	h.Kernel.RunFor(warm)

	failOverNode0(h, useRestart)

	h.Kernel.RunFor(o.scale(13*time.Minute) - warm - 2*time.Second)
	em.Stop()
	em.FlushActions()
	h.Kernel.RunFor(time.Minute)

	series = h.Recorder.MeanLatencySeries()
	for _, d := range series {
		if d > peak {
			peak = d
		}
	}
	return peak, h.Recorder.OverThreshold(), series
}

// String renders the doubled-load summary.
func (r *Figure4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: failover under doubled load — peak 1-sec mean response time\n")
	fmt.Fprintf(&b, "%6s %14s %14s\n", "nodes", "microreboot", "restart")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %14s %14s\n", row.Nodes,
			row.MicroPeak.Round(time.Millisecond), row.RestartPeak.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "\nTable 4: requests exceeding 8 s during failover under doubled load\n")
	fmt.Fprintf(&b, "%6s %12s %12s %16s %16s\n", "nodes", "µRB", "restart", "paper µRB", "paper restart")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %12d %12d %16d %16d\n", row.Nodes,
			row.MicroOver8s, row.RestartOver8s,
			r.PaperMicroOver8s[row.Nodes], r.PaperRestartOver8s[row.Nodes])
	}
	return b.String()
}

// ---------------------------------------------------------------- §6.1

// Section61Result compares failover schemes and derives the six-nines
// failure budgets of Sections 5.3 and 6.1.
type Section61Result struct {
	// FailoverMicroFailed: failover + µRB (Figure 3 scheme).
	FailoverMicroFailed int64
	// NoFailoverMicroFailed: µRB without failover (requests keep
	// flowing to the recovering node).
	NoFailoverMicroFailed int64
	// Six-nines budgets: allowed single-node failures per year for a
	// 24-node cluster at 99.9999% request success.
	BudgetRestart, BudgetFailoverMicro, BudgetNoFailoverMicro int
	// Inputs to the budget computation.
	ReqPerYear      float64
	AllowedFailures float64
	PerRestart      float64
}

// Section61 measures µRB-without-failover vs failover+µRB on a 2-node
// cluster and recomputes the paper's six-nines failure budgets.
func Section61(o Options, fig1 *Figure1Result, fig3 *Figure3Result) *Section61Result {
	res := &Section61Result{}
	// µRB without failover: same setup as Figure 3 but LB keeps routing
	// to the recovering node, which serves everything except the
	// µRB-affected component.
	h := newClusterHarness(o, 2, cluster.NodeConfig{})
	h.LB.Failover = false
	em := h.NewEmulator(2*o.clients(500), 0, workload.Config{})
	em.Start()
	h.Kernel.RunFor(o.scale(3 * time.Minute))
	if _, err := h.Injectors[0].Inject(faults.Spec{
		Kind: faults.TransientException, Component: ebid.BrowseCategories,
	}); err != nil {
		panic(err)
	}
	h.Kernel.RunFor(2 * time.Second)
	if _, err := h.Nodes[0].Microreboot(ebid.BrowseCategories); err != nil {
		panic(err)
	}
	h.Kernel.RunFor(o.scale(7 * time.Minute))
	em.Stop()
	em.FlushActions()
	res.NoFailoverMicroFailed = h.Recorder.BadOps()
	if len(fig3.Rows) > 0 {
		res.FailoverMicroFailed = fig3.Rows[0].MicroFailed
	}

	// Six-nines budget, as computed in the paper: the measured 8-node
	// cluster throughput extrapolated to 24 nodes and one year.
	res.ReqPerYear = 53.3e9
	res.AllowedFailures = res.ReqPerYear * 1e-6 // 53.3e3
	res.PerRestart = fig1.RestartAvgPerRecovery
	if res.PerRestart > 0 {
		res.BudgetRestart = int(res.AllowedFailures / res.PerRestart)
	}
	if res.FailoverMicroFailed > 0 {
		res.BudgetFailoverMicro = int(res.AllowedFailures / float64(res.FailoverMicroFailed))
	}
	perNoFailover := fig1.MicroAvgPerRecovery
	if perNoFailover > 0 {
		res.BudgetNoFailoverMicro = int(res.AllowedFailures / perNoFailover)
	}
	return res
}

// String renders the failover-scheme comparison.
func (r *Section61Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.1: alternative failover schemes\n")
	fmt.Fprintf(&b, "failover + µRB failed requests:    %d (paper: 162)\n", r.FailoverMicroFailed)
	fmt.Fprintf(&b, "µRB without failover failed reqs:  %d (paper: 78)\n", r.NoFailoverMicroFailed)
	fmt.Fprintf(&b, "six-nines budget, 24-node cluster (%.1e requests/year, %.0f may fail):\n",
		r.ReqPerYear, r.AllowedFailures)
	fmt.Fprintf(&b, "  JVM restarts:        %5d failures/year (paper: 23)\n", r.BudgetRestart)
	fmt.Fprintf(&b, "  failover + µRB:      %5d failures/year (paper: 329)\n", r.BudgetFailoverMicro)
	fmt.Fprintf(&b, "  µRB, no failover:    %5d failures/year (paper: 683)\n", r.BudgetNoFailoverMicro)
	return b.String()
}
