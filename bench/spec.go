package main

import (
	"fmt"
	"time"
)

// Everything that shapes a run is a constant here: rates, op counts,
// dataset sizes and latency limits are frozen, never derived at run time,
// so two commits are always measured doing the same work. The numbers come
// from a probe of the seed commit on a 2-vCPU box (see README.md).

const (
	// conns is how many keep-alive connections (and sender goroutines)
	// the generator uses. Eight keeps each connection under ~10 % busy at
	// the open-loop rates, so an op almost never waits for its own
	// generator (loadgen.sched_lag_p99_us stays below lat_p50_us).
	conns = 8

	// Shares of --seconds given to the phases of a steady workload.
	openShare = 0.6

	// latWindow is the window of the steady workloads' latency percentiles:
	// the reported value is the median of the per-window percentiles. At the
	// lowest steady rate a window still has 18 samples beyond its p99.
	latWindow = 1200 * time.Millisecond

	traceOps = 20000 // ops of the stream the traced in-process replay covers
)

// workloadSpec is one workload: what is deployed, what traffic it gets.
type workloadSpec struct {
	name string
	why  string

	// Deployment.
	backends   int      // 0: load goes straight to one ebid-server
	policy     string   // ebid-proxy -policy
	proxyArgs  []string // extra ebid-proxy flags
	serverArgs []string // extra ebid-server flags (store kind and geometry)
	wal        bool     // direct workloads: give the server a WAL file
	ssm        bool     // the session store is the SSM brick cluster (serverArgs say so to the server)
	ds         dataset

	// Traffic.
	gen        func(seed int64, n, vusers int, ds dataset) *stream
	vusers     int
	warmOps    int           // untimed closed-loop prefix: logins, cache fill
	rate       float64       // open-loop arrivals per second
	closedRate int           // closed-loop ops per second of --seconds (a fixed count, not a duration)
	slo        time.Duration // latency limit of slo_ok_frac
	recover    bool          // recovery phases instead of a closed loop
}

var workloads = []*workloadSpec{
	{
		name: "browse_direct",
		why:  "read-only Zipf browse mix straight at one server, dataset larger than its caches: httpfront, core, render and db reads do all the work",
		ds:   dataset{users: 1000, items: 8000}, serverArgs: []string{"-store", "fasts"},
		gen: genBrowse, vusers: 64, warmOps: 8000,
		rate: 4000, closedRate: 5000, slo: 2 * time.Millisecond,
	},
	{
		name: "bid_ssm_direct",
		why:  "session- and write-heavy bid loop straight at one server on the SSM brick cluster with a WAL: session store, commit and group commit dominate",
		ds:   dataset{users: 250, items: 3300}, wal: true, ssm: true,
		serverArgs: []string{"-store", "ssm-cluster", "-shards", "4", "-replicas", "3", "-write-quorum", "2"},
		gen:        genBid, vusers: 64, warmOps: 2000,
		rate: 2000, closedRate: 2200, slo: 2 * time.Millisecond,
	},
	{
		name: "mix_fleet",
		why:  "the paper's Table 1 mix through ebid-proxy onto two backends, as the README deploys it: the router hop is the largest share and routing balance matters",
		ds:   dataset{users: 250, items: 3300}, backends: 2, policy: "least-loaded",
		serverArgs: []string{"-store", "fasts"},
		gen:        genMix, vusers: 256, warmOps: 3000,
		rate: 1500, closedRate: 1600, slo: 5 * time.Millisecond,
	},
	{
		name: "recover_single",
		why:  "Table 1 mix at a fixed open-loop rate through a one-backend proxy while it is microrebooted 12 times, then hard-restarted 5 times: the paper's lost-work experiment",
		ds:   dataset{users: 250, items: 3300}, backends: 1, policy: "least-loaded",
		proxyArgs:  []string{"-poll-interval", "50ms"},
		serverArgs: []string{"-store", "fasts"},
		gen:        genMix, vusers: 256, warmOps: 3000,
		rate: 1000, slo: 2 * time.Second, recover: true,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Recovery schedule of recover_single. The gaps are set by the client
// policy, not by taste: a 503 is reissued one whole second later (the
// server's Retry-After granularity), so the next microreboot must not
// begin until the reissues of this one have landed, or an op would be
// refused twice for two different recoveries and the two could not be
// told apart.
const (
	urbCount     = 12
	restartCount = 5
	quietLead    = 500 * time.Millisecond  // undisturbed traffic before the first and after the last recovery
	urbGap       = 1020 * time.Millisecond // from "recovered" to the next microreboot
	restartGap   = 450 * time.Millisecond  // from "serving again" to the next restart; 502s are not reissued
	probeEvery   = 5 * time.Millisecond
)

// urbCycle is the microreboot rota: two session components a browse op
// needs, the entity group every DB op needs, two more session components,
// and the web tier everything needs.
var urbCycle = []string{"ViewItem", "Item", "MakeBid", "Authenticate", "AboutMe", "WAR"}

// recoveryCounts scales the recovery phases down when a run is too short
// for all of them (a microreboot with its gap takes ~1.7 s, a restart
// ~0.7 s); at the frozen run length it is the full 12 + 5.
func recoveryCounts(seconds int) (urbs, restarts int) {
	return min(urbCount, max(2, seconds/2)), min(restartCount, max(1, seconds*5/24))
}

// metricDef names one reported number.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // regression bound: relative, or absolute when abs is set
	abs    bool
	// everywhere marks the gated metrics every workload can report; the
	// others are defined on some workloads only.
	everywhere bool
	// contract marks the metrics that are end_to_end in BENCHMARK.json. Its
	// contract wants each of them from every workload, never zero, and
	// steady within the bound over ten runs on whatever machine runs it.
	contract bool
}

// gatedMetrics are the end-to-end metrics: measured untraced against the
// real processes, each with the bound by which it may worsen. -repeat and
// -compare judge all of them; BENCHMARK.json repeats the five that every
// workload reports and that hold still on a shared virtual machine. The
// bounds are as tight as the run-to-run spread there allows (README.md has
// the spreads).
var gatedMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, everywhere: true, contract: true},
	// Median open-loop latency at a third of capacity is mostly the cost of
	// waking halted virtual CPUs, which follows the host's other tenants:
	// over ten runs it has spread anywhere from 4 % to 30 %. Gated here,
	// where "unresolved" is a possible verdict; not in BENCHMARK.json,
	// where a spread over the bound voids the whole benchmark.
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25, everywhere: true},
	{name: "slo_ok_frac", unit: "ratio", better: "higher", bound: 0.05, everywhere: true, contract: true},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25, everywhere: true, contract: true},
	{name: "server_cpu_us_per_op", unit: "us", better: "lower", bound: 0.25, everywhere: true, contract: true},
	{name: "server_rss_mb", unit: "MiB", better: "lower", bound: 0.10, everywhere: true, contract: true},
	{name: "failed_frac", unit: "ratio", better: "lower", bound: 0.002, abs: true},
	{name: "urb_failed_per_recovery", unit: "count", better: "lower", bound: 0.10},
	{name: "urb_unmasked_per_recovery", unit: "count", better: "lower", bound: 0.15},
	{name: "urb_recovery_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "restart_failed_per_recovery", unit: "count", better: "lower", bound: 0.15},
	{name: "restart_unmasked_per_recovery", unit: "count", better: "lower", bound: 0.15},
	{name: "restart_relogins_per_recovery", unit: "count", better: "lower", bound: 0.15},
	{name: "restart_recovery_ms", unit: "ms", better: "lower", bound: 0.15},
}

// layerMetrics are the per-layer numbers, in the order of the request
// path: generator, router, supervisor, HTTP front, core, eBid, stores,
// and the trace's own validity.
var layerMetrics = []metricDef{
	// The open-loop p99 was meant to be gated. Its spread between runs of
	// one commit on this kind of machine is 20–35 % on the steady
	// workloads, whatever the phase length, so it is reported ungated.
	{name: "lat_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.sched_lag_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.sched_lag_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.sent", unit: "count", better: "higher"},
	{name: "loadgen.ok", unit: "count", better: "higher"},
	{name: "loadgen.masked", unit: "count", better: "lower"},
	{name: "loadgen.relogins", unit: "count", better: "lower"},
	{name: "loadgen.conflict_retries", unit: "count", better: "lower"},
	{name: "loadgen.failed", unit: "count", better: "lower"},
	{name: "loadgen.alt_bodies", unit: "count", better: "lower"},
	{name: "loadgen.client_self_us", unit: "us", better: "lower"},
	{name: "loadgen.lat_p999_us", unit: "us", better: "lower"},
	{name: "fleet.router.self_us", unit: "us", better: "lower"},
	{name: "fleet.router.allocs_per_op", unit: "count", better: "lower"},
	{name: "fleet.router.backend_share_max", unit: "ratio", better: "lower"},
	{name: "fleet.router.spilled", unit: "count", better: "lower"},
	{name: "fleet.router.retried", unit: "count", better: "lower"},
	{name: "fleet.router.shed", unit: "count", better: "lower"},
	{name: "fleet.router.lost_sessions", unit: "count", better: "lower"},
	{name: "fleet.router.health_lag_ms", unit: "ms", better: "lower"},
	{name: "fleet.supervisor.restart_downtime_ms", unit: "ms", better: "lower"},
	{name: "fleet.supervisor.restarts", unit: "count", better: "lower"},
	{name: "httpfront.self_us", unit: "us", better: "lower"},
	{name: "httpfront.allocs_per_op", unit: "count", better: "lower"},
	{name: "httpfront.status_401", unit: "count", better: "lower"},
	{name: "httpfront.status_500", unit: "count", better: "lower"},
	{name: "httpfront.status_503", unit: "count", better: "lower"},
	{name: "httpfront.status_502_504", unit: "count", better: "lower"},
	{name: "httpfront.shed", unit: "count", better: "lower"},
	{name: "core.invoke_noop_ns", unit: "ns", better: "lower"},
	{name: "core.hops_per_op", unit: "count", better: "lower"},
	{name: "core.urb_begin_us", unit: "us", better: "lower"},
	{name: "core.urb_complete_us", unit: "us", better: "lower"},
	{name: "core.urb_modeled_ms", unit: "ms", better: "lower"},
	{name: "core.urb_killed_calls", unit: "count", better: "lower"},
	{name: "core.urb_aborted_txs", unit: "count", better: "lower"},
	{name: "ebid.execute_us", unit: "us", better: "lower"},
	{name: "ebid.war_self_us", unit: "us", better: "lower"},
	{name: "ebid.session_comp_self_us", unit: "us", better: "lower"},
	{name: "ebid.entity_self_us", unit: "us", better: "lower"},
	{name: "ebid.allocs_per_op", unit: "count", better: "lower"},
	{name: "ebid.intern_hit_ratio", unit: "ratio", better: "higher"},
	{name: "ebid.body_bytes_per_op", unit: "B", better: "lower"},
	{name: "store.db.point_read_ns", unit: "ns", better: "lower"},
	{name: "store.db.lookup_ns", unit: "ns", better: "lower"},
	{name: "store.db.rowcache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "store.db.commit_ns", unit: "ns", better: "lower"},
	{name: "store.db.commit_allocs", unit: "count", better: "lower"},
	{name: "store.db.commits_per_op", unit: "ratio", better: "lower"},
	{name: "store.db.conflicts_per_commit", unit: "ratio", better: "lower"},
	{name: "store.db.wal_bytes_per_commit", unit: "B", better: "lower"},
	{name: "store.db.group_commit_mean_batch", unit: "count", better: "higher"},
	{name: "store.db.wal_replay_ms", unit: "ms", better: "lower"},
	{name: "store.db.wal_records", unit: "count", better: "lower"},
	{name: "store.session.read_us", unit: "us", better: "lower"},
	{name: "store.session.write_us", unit: "us", better: "lower"},
	{name: "store.session.calls_per_op", unit: "count", better: "lower"},
	{name: "store.session.allocs_per_read", unit: "count", better: "lower"},
	{name: "store.session.renewal_writes", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.unattributed_frac", unit: "ratio", better: "lower"},
}

func gatedByName(name string) (metricDef, bool) {
	for _, m := range gatedMetrics {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
