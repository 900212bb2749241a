package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- Figure 1

// Figure1Result is the Taw timeline comparison of EJB microreboots vs
// JVM process restarts under the three-fault schedule of Figure 1.
type Figure1Result struct {
	// Good/Bad per-second series for both runs.
	MicroGood, MicroBad     []int64
	RestartGood, RestartBad []int64
	// Totals.
	MicroFailedReqs, RestartFailedReqs       int64
	MicroFailedActions, RestartFailedActions int64
	// Per-recovery averages (3 recovery events per run).
	MicroAvgPerRecovery, RestartAvgPerRecovery float64
	// Recovery actions taken.
	MicroActions, RestartActions []recovery.Action
	// The µRB-run recorder, reused by Figure 2.
	microRecorder *metrics.Recorder
}

// figure1Faults injects the paper's three faults: at 1/4 of the runtime a
// corrupted transaction method map in the EntityGroup (slowest-recovering
// group), at 2/4 a corrupted naming entry for RegisterNewUser
// (next-slowest), at 3/4 a transient exception in BrowseCategories (the
// most frequently called component).
func figure1Faults(e *env, runtime time.Duration) {
	e.kernel.ScheduleAt(runtime/4, func() {
		if _, err := e.injector.Inject(faults.Spec{
			Kind: faults.CorruptTxMethodMap, Component: ebid.EntItem, Mode: faults.ModeNull,
		}); err != nil {
			panic(err)
		}
	})
	e.kernel.ScheduleAt(runtime/2, func() {
		if _, err := e.injector.Inject(faults.Spec{
			Kind: faults.CorruptNaming, Component: ebid.RegisterNewUser, Mode: faults.ModeNull,
		}); err != nil {
			panic(err)
		}
	})
	e.kernel.ScheduleAt(3*runtime/4, func() {
		if _, err := e.injector.Inject(faults.Spec{
			Kind: faults.TransientException, Component: ebid.BrowseCategories,
		}); err != nil {
			panic(err)
		}
	})
}

// runFigure1 runs the 40-minute timeline with the given recovery scope.
func runFigure1(o Options, forceScope core.Scope) (*env, *recovery.Manager) {
	e := newEnv(o, o.clients(500), useFastS, cluster.NodeConfig{})
	rm := recovery.NewManager(e.kernel, e.node, recovery.Config{
		Threshold:  3,
		ForceScope: forceScope,
	})
	e.emulator.OnFailure(func(clientID int, op string, resp workload.Response) {
		// Session-loss failures after a process restart are knock-on
		// effects of the recovery itself, not new faults; reporting them
		// would send the manager into a restart loop.
		if errors.Is(resp.Err, ebid.ErrNotLoggedIn) {
			return
		}
		rm.Report(recovery.Report{Op: op, Kind: "client-detector"})
	})
	runtime := o.scale(40 * time.Minute)
	figure1Faults(e, runtime)
	e.emulator.Start()
	e.kernel.RunFor(runtime)
	e.emulator.Stop()
	e.emulator.FlushActions()
	e.kernel.RunFor(30 * time.Second)
	return e, rm
}

// Figure1 produces the action-weighted throughput timelines.
func Figure1(o Options) *Figure1Result {
	micro, microRM := runFigure1(o, 0)
	restart, restartRM := runFigure1(o, core.ScopeProcess)

	mg, mb := micro.recorder.Buckets()
	rg, rb := restart.recorder.Buckets()
	res := &Figure1Result{
		MicroGood: mg, MicroBad: mb,
		RestartGood: rg, RestartBad: rb,
		MicroFailedReqs:      micro.recorder.BadOps(),
		RestartFailedReqs:    restart.recorder.BadOps(),
		MicroFailedActions:   micro.recorder.FailedActions(),
		RestartFailedActions: restart.recorder.FailedActions(),
		MicroActions:         microRM.Actions,
		RestartActions:       restartRM.Actions,
		microRecorder:        micro.recorder,
	}
	if n := len(microRM.Actions); n > 0 {
		res.MicroAvgPerRecovery = float64(res.MicroFailedReqs) / float64(n)
	}
	if n := len(restartRM.Actions); n > 0 {
		res.RestartAvgPerRecovery = float64(res.RestartFailedReqs) / float64(n)
	}
	return res
}

// String summarizes the timeline comparison.
func (r *Figure1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: Taw under 3 faults — process restart vs microreboot\n")
	fmt.Fprintf(&b, "%-22s %16s %16s\n", "", "microreboot", "process restart")
	fmt.Fprintf(&b, "%-22s %16d %16d   (paper: 233 vs 11,752)\n", "failed requests",
		r.MicroFailedReqs, r.RestartFailedReqs)
	fmt.Fprintf(&b, "%-22s %16d %16d   (paper: 34 vs 3,101)\n", "failed actions",
		r.MicroFailedActions, r.RestartFailedActions)
	fmt.Fprintf(&b, "%-22s %16.0f %16.0f   (paper: 78 vs 3,917)\n", "failed per recovery",
		r.MicroAvgPerRecovery, r.RestartAvgPerRecovery)
	fmt.Fprintf(&b, "%-22s %16d %16d\n", "recovery events",
		len(r.MicroActions), len(r.RestartActions))
	if r.RestartFailedReqs > 0 && r.MicroFailedReqs > 0 {
		fmt.Fprintf(&b, "improvement: %.0fx fewer failed requests (paper: ~50x; ≥10x = order of magnitude)\n",
			float64(r.RestartFailedReqs)/float64(r.MicroFailedReqs))
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 2

// Figure2Result is the functional-disruption view around one recovery.
type Figure2Result struct {
	// Gaps per functional group during the µRB run.
	MicroGaps map[string][]metrics.Interval
	// Gaps during the restart run.
	RestartGaps map[string][]metrics.Interval
	// Windows of total unavailability (all four groups down).
	MicroTotalDown, RestartTotalDown time.Duration
}

// Figure2 reruns the Figure 1 third fault (transient exception in the
// most frequently called component) and reports which functional groups
// end users perceived as unavailable.
func Figure2(o Options) *Figure2Result {
	run := func(force core.Scope) map[string][]metrics.Interval {
		e := newEnv(o, o.clients(500), useFastS, cluster.NodeConfig{})
		rm := recovery.NewManager(e.kernel, e.node, recovery.Config{Threshold: 3, ForceScope: force})
		e.emulator.OnFailure(func(_ int, op string, resp workload.Response) {
			if errors.Is(resp.Err, ebid.ErrNotLoggedIn) {
				return
			}
			rm.Report(recovery.Report{Op: op})
		})
		e.kernel.ScheduleAt(o.scale(4*time.Minute), func() {
			if _, err := e.injector.Inject(faults.Spec{
				Kind: faults.TransientException, Component: ebid.BrowseCategories,
			}); err != nil {
				panic(err)
			}
		})
		e.emulator.Start()
		e.kernel.RunFor(o.scale(8 * time.Minute))
		e.emulator.Stop()
		e.emulator.FlushActions()
		return e.recorder.Unavailability()
	}
	res := &Figure2Result{
		MicroGaps:   run(0),
		RestartGaps: run(core.ScopeProcess),
	}
	res.MicroTotalDown = totalDown(res.MicroGaps)
	res.RestartTotalDown = totalDown(res.RestartGaps)
	return res
}

// totalDown sums the intersection-ish disruption: the longest gap across
// groups that overlaps all four (approximated by the max single-group gap
// common to every group's merged windows).
func totalDown(gaps map[string][]metrics.Interval) time.Duration {
	groups := []string{ebid.GroupBidBuySell, ebid.GroupBrowseView, ebid.GroupSearch, ebid.GroupUserAccount}
	var total time.Duration
	// A second counts as "totally down" when every group has a failed
	// request whose processing overlaps it.
	covered := func(ivs []metrics.Interval, t time.Duration) bool {
		for _, iv := range ivs {
			if iv.From < t+time.Second && iv.To > t {
				return true
			}
		}
		return false
	}
	var horizon time.Duration
	for _, g := range groups {
		for _, iv := range gaps[g] {
			if iv.To > horizon {
				horizon = iv.To
			}
		}
	}
	for t := time.Duration(0); t < horizon; t += time.Second {
		all := true
		for _, g := range groups {
			if !covered(gaps[g], t) {
				all = false
				break
			}
		}
		if all {
			total += time.Second
		}
	}
	return total
}

// String renders the per-group disruption summary.
func (r *Figure2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: functional disruption during recovery\n")
	groups := []string{ebid.GroupBidBuySell, ebid.GroupBrowseView, ebid.GroupSearch, ebid.GroupUserAccount}
	sum := func(ivs []metrics.Interval) time.Duration {
		var s time.Duration
		for _, iv := range ivs {
			s += iv.Length()
		}
		return s
	}
	fmt.Fprintf(&b, "%-16s %18s %18s\n", "group", "µRB disruption", "restart disruption")
	for _, g := range groups {
		fmt.Fprintf(&b, "%-16s %18s %18s\n", g,
			sum(r.MicroGaps[g]).Round(time.Second), sum(r.RestartGaps[g]).Round(time.Second))
	}
	fmt.Fprintf(&b, "total outage (all groups down): µRB=%s restart=%s (paper: none vs whole restart window)\n",
		r.MicroTotalDown, r.RestartTotalDown)
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// Figure5Point is one (Tdet, failed-requests) sample.
type Figure5Point struct {
	Tdet   time.Duration
	Failed int64
}

// Figure5LeftResult is the detection-time relaxation curve.
type Figure5LeftResult struct {
	Micro   []Figure5Point
	Restart []Figure5Point
	// CrossoverTdet is the detection delay at which µRB-based recovery
	// still beats restart with instant detection (paper: 53.5 s).
	CrossoverTdet time.Duration
}

// Figure5Left sweeps the failure-detection delay Tdet and counts failed
// requests for µRB vs process-restart recovery.
func Figure5Left(o Options) *Figure5LeftResult {
	delays := []time.Duration{0, time.Second, 5 * time.Second, 10 * time.Second,
		20 * time.Second, 40 * time.Second, 60 * time.Second, 100 * time.Second}
	if o.Quick {
		delays = []time.Duration{0, 5 * time.Second, 20 * time.Second, 60 * time.Second}
	}
	run := func(force core.Scope, tdet time.Duration) int64 {
		e := newEnv(o, o.clients(500), useFastS, cluster.NodeConfig{})
		rm := recovery.NewManager(e.kernel, e.node, recovery.Config{
			Threshold: 3, ForceScope: force, DetectionDelay: tdet,
		})
		e.emulator.OnFailure(func(_ int, op string, _ workload.Response) {
			rm.Report(recovery.Report{Op: op})
		})
		e.kernel.ScheduleAt(o.scale(3*time.Minute), func() {
			if _, err := e.injector.Inject(faults.Spec{
				Kind: faults.TransientException, Component: ebid.BrowseCategories,
			}); err != nil {
				panic(err)
			}
		})
		e.emulator.Start()
		e.kernel.RunFor(o.scale(3*time.Minute) + tdet + 3*time.Minute)
		e.emulator.Stop()
		e.emulator.FlushActions()
		return e.recorder.BadOps()
	}
	res := &Figure5LeftResult{}
	for _, d := range delays {
		res.Micro = append(res.Micro, Figure5Point{d, run(0, d)})
	}
	restartAt0 := run(core.ScopeProcess, 0)
	res.Restart = append(res.Restart, Figure5Point{0, restartAt0})
	for _, d := range delays[1:] {
		res.Restart = append(res.Restart, Figure5Point{d, run(core.ScopeProcess, d)})
	}
	// Crossover: largest Tdet where µRB failures ≤ restart@0 failures.
	for _, p := range res.Micro {
		if p.Failed <= restartAt0 {
			res.CrossoverTdet = p.Tdet
		}
	}
	return res
}

// String renders both curves.
func (r *Figure5LeftResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (left): failed requests vs detection time Tdet\n")
	fmt.Fprintf(&b, "%10s %14s %14s\n", "Tdet", "microreboot", "restart")
	for i := range r.Micro {
		restart := int64(-1)
		if i < len(r.Restart) {
			restart = r.Restart[i].Failed
		}
		fmt.Fprintf(&b, "%10s %14d %14d\n", r.Micro[i].Tdet, r.Micro[i].Failed, restart)
	}
	fmt.Fprintf(&b, "µRB with Tdet up to %s still beats restart with instant detection (paper: 53.5 s)\n",
		r.CrossoverTdet)
	return b.String()
}

// Figure5RightResult is the false-positive tolerance curve, computed
// analytically from the measured per-recovery costs as the paper does:
// f(n) = n useless recoveries plus one useful one.
type Figure5RightResult struct {
	// Rates are the false-positive rates evaluated.
	Rates []float64
	// MicroFailed[i] and RestartFailed[i] are f(n) for rate n/(n+1).
	MicroFailed, RestartFailed []float64
	// ToleratedFPRate is the largest rate at which µRB still beats
	// restart with zero false positives (paper: 98%).
	ToleratedFPRate float64
	// Per-recovery costs used (measured by Figure 1).
	MicroCost, RestartCost float64
}

// Figure5Right computes the false-positive curves from the Figure 1
// per-recovery averages.
func Figure5Right(microCost, restartCost float64) *Figure5RightResult {
	res := &Figure5RightResult{MicroCost: microCost, RestartCost: restartCost}
	for _, n := range []float64{0, 1, 3, 9, 19, 49, 99, 199} {
		rate := n / (n + 1)
		res.Rates = append(res.Rates, rate)
		res.MicroFailed = append(res.MicroFailed, (n+1)*microCost)
		res.RestartFailed = append(res.RestartFailed, (n+1)*restartCost)
	}
	// µRB beats restart@FP=0 while (n+1)*micro <= restart.
	nMax := restartCost/microCost - 1
	if nMax > 0 {
		res.ToleratedFPRate = nMax / (nMax + 1)
	}
	return res
}

// String renders the curve.
func (r *Figure5RightResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (right): failed requests vs false-positive rate\n")
	fmt.Fprintf(&b, "(per-recovery cost: µRB=%.0f, restart=%.0f failed requests)\n", r.MicroCost, r.RestartCost)
	fmt.Fprintf(&b, "%8s %14s %14s\n", "FP rate", "microreboot", "restart")
	for i, rate := range r.Rates {
		fmt.Fprintf(&b, "%7.1f%% %14.0f %14.0f\n", rate*100, r.MicroFailed[i], r.RestartFailed[i])
	}
	fmt.Fprintf(&b, "µRB tolerates false-positive rates up to %.1f%% (paper: 98%%)\n", r.ToleratedFPRate*100)
	return b.String()
}
