package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       *workloadSpec
	seed    int64
	seconds int
	trace   bool // also replay in-process with spans and report the layer metrics
	setups  int  // how many times the fixture is set up; setup_s is their median
	bins    [2]string
	runDir  string
	log     io.Writer
}

// runResult is what one run measured.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"` // ops that failed outside any injected recovery
	Violations []string           `json:"violations,omitempty"`
	Samples    map[string]int     `json:"samples"` // sample counts behind the timings
	Metrics    map[string]float64 `json:"metrics"`
}

// cacheCounters are the read-path cache counters ebid-server publishes on
// /admin/fleet/status.
type cacheCounters struct {
	Shed   int64 `json:"shed"`
	Caches struct {
		RowCache   struct{ Hits, Misses int64 } `json:"row_cache"`
		BodyIntern struct{ Hits, Misses int64 } `json:"body_intern"`
	} `json:"caches"`
}

func (f *fixture) cacheCounters() (cacheCounters, error) {
	var sum cacheCounters
	for _, b := range f.backends {
		var c cacheCounters
		if err := getJSON("http://"+b+"/admin/fleet/status", &c); err != nil {
			return sum, err
		}
		sum.Shed += c.Shed
		sum.Caches.RowCache.Hits += c.Caches.RowCache.Hits
		sum.Caches.RowCache.Misses += c.Caches.RowCache.Misses
		sum.Caches.BodyIntern.Hits += c.Caches.BodyIntern.Hits
		sum.Caches.BodyIntern.Misses += c.Caches.BodyIntern.Misses
	}
	return sum, nil
}

func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// tally collects what the incarnations of one run measured. A steady
// workload is measured on every incarnation — a fresh set of processes
// each time — and reports medians over them: how a set of processes
// happens to be laid out on the machine's CPUs can make one incarnation a
// tenth slower or faster for as long as it lives, which no amount of
// measuring that one incarnation averages out.
type tally struct {
	setupS, tput, cpuPerOp, rss []float64
	p50s, p99s                  []float64 // per window of every open loop
	latUS, lagUS                []float64 // every open-loop op
	all                         phaseStats
	sloOK, openSent             int // the latency limit is judged on the open loops alone
	unexpected                  int
	sums                        map[string]float64 // counters, added up
	ratios                      map[string][]float64
}

func (t *tally) add(name string, v float64) { t.sums[name] += v }

func runWorkload(cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Samples: map[string]int{}, Metrics: map[string]float64{},
	}
	t := &tally{sums: map[string]float64{}, ratios: map[string][]float64{}}
	for i := 0; i < cfg.setups; i++ {
		last := i == cfg.setups-1
		if err := runIncarnation(cfg, i, last, t, res); err != nil {
			return nil, err
		}
	}
	m := res.Metrics
	for name, v := range t.sums {
		m[name] = v
	}
	for name, vs := range t.ratios {
		m[name] = median(vs)
	}
	m["setup_s"] = median(t.setupS)
	m["lat_p50_us"] = median(t.p50s)
	m["lat_p99_us"] = median(t.p99s)
	m["throughput_rps"] = median(t.tput)
	m["server_cpu_us_per_op"] = median(t.cpuPerOp)
	m["server_rss_mb"] = median(t.rss)
	m["slo_ok_frac"] = float64(t.sloOK) / float64(t.openSent)
	m["failed_frac"] = float64(t.all.failed) / float64(t.all.sent)
	sort.Float64s(t.latUS)
	sort.Float64s(t.lagUS)
	m["loadgen.lat_p999_us"] = percentile(t.latUS, 0.999)
	m["loadgen.sched_lag_p50_us"] = percentile(t.lagUS, 0.50)
	m["loadgen.sched_lag_p99_us"] = percentile(t.lagUS, 0.99)
	m["loadgen.sent"] = float64(t.all.sent)
	m["loadgen.ok"] = float64(t.all.ok)
	m["loadgen.masked"] = float64(t.all.masked)
	m["loadgen.relogins"] = float64(t.all.relogins)
	m["loadgen.conflict_retries"] = float64(t.all.conflicts)
	m["loadgen.failed"] = float64(t.all.failed)
	m["loadgen.alt_bodies"] = float64(t.all.altBody)
	res.Attempted, res.Failed = t.all.sent, t.unexpected
	res.Samples["setup_s"] = len(t.setupS)
	res.Samples["lat_p50_us"] = len(t.latUS)
	res.Samples["lat_p99_us"] = len(t.latUS)
	res.Samples["throughput_rps"] = len(t.tput)
	return res, nil
}

// runIncarnation sets the workload's processes up once, measures them
// (every incarnation of a steady workload; only the last of the recovery
// workload, whose earlier ones serve setup_s alone), checks what they
// answered, and stops them. The last incarnation also feeds the traced run.
func runIncarnation(cfg runConfig, n int, last bool, t *tally, res *runResult) (err error) {
	w := cfg.w
	measured := last || !w.recover
	parts := cfg.setups
	if w.recover {
		parts = 1
	}
	// This incarnation's request stream and arrival times, from the seed
	// alone. Each incarnation gets a stream of its own, consistent from
	// its first op: the processes it meets know nothing of earlier ones.
	seed := cfg.seed*16 + int64(n)
	span := time.Duration(float64(cfg.seconds) * openShare / float64(parts) * float64(time.Second))
	var arrivals []time.Duration
	switch {
	case !measured:
	case w.recover:
		// Long enough for any plausible recovery times; the controller
		// ends the loop when its last phase is over.
		arrivals = poissonArrivals(seed, w.rate, time.Duration(cfg.seconds)*3*time.Second)
	default:
		arrivals = poissonArrivals(seed, w.rate, span)
	}
	openFrom := w.warmOps
	closedFrom := openFrom + len(arrivals)
	total := closedFrom + w.closedRate*cfg.seconds/parts
	need := total
	if last && cfg.trace {
		need = max(need, traceOps)
	}
	st := w.gen(seed, need, w.vusers, w.ds)
	ledger, err := newBidLedger(w.ds)
	if err != nil {
		return err
	}

	t0 := time.Now()
	fx, err := startFixture(w, cfg.runDir, cfg.bins[0], cfg.bins[1])
	if err != nil {
		if fx != nil {
			fmt.Fprint(cfg.log, fx.logTail(25))
			fx.stop()
		}
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if err != nil || len(res.Violations) > 0 {
			fmt.Fprint(cfg.log, fx.logTail(25))
		}
		fx.stop()
		_ = os.RemoveAll(fx.dir) // WALs and logs of a finished incarnation; a leftover is harmless
	}()
	users := make([]vuser, st.vusers)
	warm := &loadRun{target: fx.target, st: st, from: 0, to: w.warmOps, conns: conns, users: users, ledger: ledger}
	warm.run()
	t.setupS = append(t.setupS, time.Since(t0).Seconds())
	if p := reduce(warm.res, 0, time.Hour, time.Hour); p.failed > 0 {
		return fmt.Errorf("set-up: %d of %d warm-up ops failed, e.g.\n  %s", p.failed, p.sent, strings.Join(warm.failures, "\n  "))
	}
	if !measured {
		return nil
	}

	if err := fx.sample(); err != nil {
		return err
	}
	cache0, err := fx.cacheCounters()
	if err != nil {
		return err
	}
	resume := quiesce()
	defer resume()
	open := &loadRun{target: fx.target, st: st, from: openFrom, to: closedFrom, due: arrivals, conns: conns, users: users, ledger: ledger}
	runs := []*loadRun{open}
	var all phaseStats
	if w.recover {
		all, err = measureRecovery(cfg, fx, open, ledger, t, res)
	} else {
		closed := &loadRun{target: fx.target, st: st, from: closedFrom, to: total, conns: conns, users: users, ledger: ledger}
		runs = append(runs, closed)
		all, err = measureSteady(w, fx, open, closed, span, t)
	}
	if err != nil {
		return err
	}
	resume()
	t.rss = append(t.rss, fx.rssMiB())
	t.latUS = append(t.latUS, all.latUS...)
	t.lagUS = append(t.lagUS, all.lagUS...)
	t.all = merge(t.all, all)

	// What was answered must have been right: no wrong pages, and every
	// acknowledged bid there now that the load has stopped.
	res.Violations = append(res.Violations, checkBodies(all)...)
	res.Violations = append(res.Violations, ledger.verify(fx.history, 0, true)...)
	for _, r := range runs {
		if len(r.wrong) > 0 {
			fmt.Fprintf(cfg.log, "wrong pages, e.g.\n  %s\n", strings.Join(r.wrong, "\n  "))
		}
		t.add("httpfront.status_401", float64(r.statuses[1].Load()))
		t.add("httpfront.status_500", float64(r.statuses[2].Load()))
		t.add("httpfront.status_503", float64(r.statuses[3].Load()))
		t.add("httpfront.status_502_504", float64(r.statuses[4].Load()))
	}

	// Counters the servers keep anyway.
	cache1, err := fx.cacheCounters()
	if err != nil {
		return err
	}
	// After a restart the counters start from zero again; then the
	// post-restart totals are the best available reading.
	rc, bi := cache1.Caches.RowCache, cache1.Caches.BodyIntern
	if !w.recover {
		rc.Hits, rc.Misses = rc.Hits-cache0.Caches.RowCache.Hits, rc.Misses-cache0.Caches.RowCache.Misses
		bi.Hits, bi.Misses = bi.Hits-cache0.Caches.BodyIntern.Hits, bi.Misses-cache0.Caches.BodyIntern.Misses
	}
	t.ratios["store.db.rowcache_hit_ratio"] = append(t.ratios["store.db.rowcache_hit_ratio"], hitRatio(rc.Hits, rc.Misses))
	t.ratios["ebid.intern_hit_ratio"] = append(t.ratios["ebid.intern_hit_ratio"], hitRatio(bi.Hits, bi.Misses))
	t.add("httpfront.shed", float64(cache1.Shed))
	if fx.proxy != nil {
		ps, err := fx.proxyStatus()
		if err != nil {
			return err
		}
		var done, most int64
		for _, b := range ps.Router.Backends {
			done += b.Completed
			most = max(most, b.Completed)
		}
		if done > 0 {
			t.ratios["fleet.router.backend_share_max"] = append(t.ratios["fleet.router.backend_share_max"], float64(most)/float64(done))
		}
		t.add("fleet.router.spilled", float64(ps.Router.Spilled))
		t.add("fleet.router.retried", float64(ps.Router.Retried))
		t.add("fleet.router.shed", float64(ps.Router.Shed))
		t.add("fleet.router.lost_sessions", float64(ps.Router.LostSessions))
		for _, c := range ps.Supervisor {
			t.add("fleet.supervisor.restarts", float64(c.Gen-1))
		}
	}

	if last && cfg.trace {
		walPath := filepath.Join(fx.dir, "node0.wal")
		if _, err := os.Stat(walPath); err != nil {
			walPath = ""
		}
		// The servers are idle from here on, but stop them first anyway:
		// the traced replay should have the machine to itself.
		fx.stop()
		if err := traceLayers(w, st, walPath, cfg.runDir, res.Metrics); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	return nil
}

// measureSteady runs an incarnation's open loop and then its closed loop,
// and returns the counts of both (with the open loop's latencies).
func measureSteady(w *workloadSpec, fx *fixture, open, closed *loadRun, span time.Duration, t *tally) (phaseStats, error) {
	open.run()
	all := reduce(open.res, 0, time.Hour, w.slo)
	t.sloOK, t.openSent = t.sloOK+all.sloOK, t.openSent+all.sent
	t.p50s = append(t.p50s, windowPercentiles(open.res, span, latWindow, 0.50)...)
	t.p99s = append(t.p99s, windowPercentiles(open.res, span, latWindow, 0.99)...)

	if err := fx.sample(); err != nil {
		return all, err
	}
	cpu0 := fx.cpuSeconds()
	closed.run()
	if err := fx.sample(); err != nil {
		return all, err
	}
	c := reduce(closed.res, 0, time.Hour, time.Hour)
	t.tput = append(t.tput, float64(c.sent)/closed.elapsed.Seconds())
	t.cpuPerOp = append(t.cpuPerOp, (fx.cpuSeconds()-cpu0)/float64(c.sent)*1e6)
	all = merge(all, c)
	t.unexpected += all.failed
	return all, nil
}

// measureRecovery runs the open loop with the recovery controller beside
// it, and turns what both saw into the recovery metrics.
func measureRecovery(cfg runConfig, fx *fixture, open *loadRun, ledger *bidLedger, t *tally, res *runResult) (phaseStats, error) {
	w := cfg.w
	urbs, restarts := recoveryCounts(cfg.seconds)
	cpu0 := fx.cpuSeconds()
	done := make(chan struct{})
	open.begin()
	go func() { open.drive(); close(done) }()
	lg, err := runRecovery(fx, open, ledger, urbs, restarts)
	<-done
	if err == nil {
		err = fx.sample()
	}
	if err != nil {
		return phaseStats{}, err
	}
	all := reduce(open.res, 0, time.Hour, w.slo)
	t.sloOK, t.openSent = t.sloOK+all.sloOK, t.openSent+all.sent
	// What a restart breaks is found out lazily — a user learns that the
	// session is gone on the next click — so everything from the first
	// restart to the end of the run is charged to the restarts.
	a := reduce(open.res, lg.aStart, lg.aEnd, w.slo)
	b := reduce(open.res, lg.bStart, time.Hour, w.slo)
	t.unexpected += all.failed - a.failed - b.failed
	// The recoveries are the point of this workload, so its latency is
	// taken over the whole disturbed run, not over windows.
	t.p50s = append(t.p50s, percentile(all.latUS, 0.50))
	t.p99s = append(t.p99s, percentile(all.latUS, 0.99))
	// Goodput and its cost over the whole disturbed run: the paper's
	// Figure 1 reads lost work off exactly this.
	t.tput = append(t.tput, float64(all.ok)/open.elapsed.Seconds())
	t.cpuPerOp = append(t.cpuPerOp, (fx.cpuSeconds()-cpu0)/float64(all.ok)*1e6)
	nA, nB := float64(len(lg.urbMS)), float64(len(lg.restartMS))
	m := res.Metrics
	m["urb_failed_per_recovery"] = float64(a.firstFailed) / nA
	m["urb_unmasked_per_recovery"] = float64(a.failed) / nA
	m["urb_recovery_ms"] = mean(lg.urbMS)
	m["restart_failed_per_recovery"] = float64(b.firstFailed) / nB
	m["restart_unmasked_per_recovery"] = float64(b.failed) / nB
	m["restart_relogins_per_recovery"] = float64(b.relogins) / nB
	m["restart_recovery_ms"] = mean(lg.restartMS)
	res.Samples["urb_recovery_ms"] = len(lg.urbMS)
	res.Samples["restart_recovery_ms"] = len(lg.restartMS)
	m["core.urb_modeled_ms"] = mean(lg.urbModelMS)
	m["core.urb_killed_calls"] = float64(lg.killedCalls)
	m["core.urb_aborted_txs"] = float64(lg.abortedTxs)
	m["fleet.supervisor.restart_downtime_ms"] = mean(lg.downtimeMS)
	m["fleet.router.health_lag_ms"] = mean(lg.healthLagMS)
	res.Violations = append(res.Violations, lg.violations...)
	if v := checkSessionsSurvive(open.res, lg.bStart); len(v) > 0 {
		res.Violations = append(res.Violations, v...)
		fmt.Fprintf(cfg.log, "sessions lost before the first restart (at +%v), e.g.\n  %s\n",
			lg.bStart.Round(time.Millisecond), strings.Join(open.lapsed, "\n  "))
	}
	return all, nil
}

// merge adds the counts of two phases. The latencies stay the first's, and
// sloOK is left out: both belong to open loops only.
func merge(a, b phaseStats) phaseStats {
	a.sent += b.sent
	a.ok += b.ok
	a.firstFailed += b.firstFailed
	a.masked += b.masked
	a.failed += b.failed
	a.relogins += b.relogins
	a.saw401 += b.saw401
	a.conflicts += b.conflicts
	a.skipped += b.skipped
	a.badBody += b.badBody
	a.altBody += b.altBody
	return a
}
