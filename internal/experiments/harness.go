// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 5 and 6). Each exported function runs one
// experiment on the simulation substrate and returns a structured result
// whose String method prints the same rows/series the paper reports.
//
// Absolute numbers are produced by the calibrated simulator, not the
// authors' 2004 testbed; each result prints the paper's value beside the
// measured one, and the tests in this package check that the shape of
// every result (who wins, by what factor, where crossovers fall) is
// preserved.
//
// The repo's extensions beyond the paper (brick crash, fail-stutter
// brick, fleet routing) are scenario specs under
// scenarios/, run by internal/scenario on the same Harness that Figures 3
// and 4 and Section 6.1 use.
package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store/db"
	"repro/internal/store/session"
	"repro/internal/workload"
)

// Options scales experiments; Quick shrinks durations and populations so
// the full suite runs in seconds (used by tests and benchmarks).
type Options struct {
	Quick bool
	// Seed selects the simulation seed. For backward compatibility a zero
	// Seed with SeedSet false means "use the documented default of 42";
	// set SeedSet to pin seed 0 explicitly (scenario specs and -seed do).
	Seed    int64
	SeedSet bool
	// ClusterStore selects the session store the multi-node cluster
	// experiments (Figures 3/4, Section 6.1) share across nodes: "fasts"
	// (default, node-local state — the paper's main configuration) or
	// "ssm-cluster" (a cross-node SSM brick cluster, the paper's §6.1
	// variant whose session state survives node restarts). It is passed to
	// NewHarness as HarnessConfig.Store.
	ClusterStore string
}

func (o Options) seed() int64 {
	if o.SeedSet {
		return o.Seed
	}
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// SeedValue reports the seed the experiment kernels will actually use
// (the documented default 42 unless a seed was given — zero counts as
// given only when SeedSet is true).
func (o Options) SeedValue() int64 { return o.seed() }

// scale shortens a duration in quick mode.
func (o Options) scale(d time.Duration) time.Duration {
	if o.Quick {
		return d / 4
	}
	return d
}

func (o Options) clients(n int) int {
	if o.Quick {
		return n / 2
	}
	return n
}

// Scaled exposes the quick-mode duration scaling to external drivers
// (the scenario engine shortens spec timelines exactly like figures).
func (o Options) Scaled(d time.Duration) time.Duration { return o.scale(d) }

// ScaledClients exposes the quick-mode population scaling.
func (o Options) ScaledClients(n int) int { return o.clients(n) }

// env is a single-node experiment environment.
type env struct {
	kernel   *sim.Kernel
	db       *db.DB
	store    session.Store
	node     *cluster.Node
	recorder *metrics.Recorder
	emulator *workload.Emulator
	injector *faults.Injector
}

// storeKind selects the single-node environment's session store.
type storeKind int

const (
	useFastS storeKind = iota
	useSSM
)

// newStore builds the session store for a kind on the kernel's clock. The
// SSM is the brick cluster at its single-node geometry: one shard × one
// replica, W = 1.
func newStore(k *sim.Kernel, kind storeKind) session.Store {
	if kind == useSSM {
		cl, err := session.NewSSMCluster(session.ClusterConfig{
			Shards: 1, Replicas: 1, WriteQuorum: 1, LeaseTTL: time.Hour, Now: k.Now,
		})
		if err != nil {
			panic("experiments: ssm: " + err.Error())
		}
		return cl
	}
	return session.NewFastS()
}

func experimentDataset(o Options) ebid.DatasetConfig {
	cfg := ebid.DefaultDataset()
	if o.Quick {
		cfg.Users, cfg.Items, cfg.OldItems = 100, 500, 50
	}
	return cfg
}

// newEnv builds a one-node environment with an emulated client
// population.
func newEnv(o Options, clients int, kind storeKind, nodeCfg cluster.NodeConfig) *env {
	k := sim.NewKernel(o.seed())
	d := db.New(db.NewWAL()) // the simulator's stable storage: table repair replays it
	ds := experimentDataset(o)
	if err := ebid.LoadDataset(d, ds); err != nil {
		panic("experiments: dataset: " + err.Error())
	}
	store := newStore(k, kind)
	nodeCfg.Dataset = ds
	if nodeCfg.Name == "" {
		nodeCfg.Name = "node0"
	}
	n, err := cluster.NewNode(k, d, store, nodeCfg)
	if err != nil {
		panic("experiments: node: " + err.Error())
	}
	rec := metrics.NewRecorder(time.Second, 8*time.Second)
	em := workload.NewEmulator(k, n, rec, workload.Config{
		Clients:    clients,
		Users:      int64(ds.Users),
		Items:      int64(ds.Items),
		Categories: int64(ds.Categories),
		Regions:    int64(ds.Regions),
	})
	return &env{
		kernel:   k,
		db:       d,
		store:    store,
		node:     n,
		recorder: rec,
		emulator: em,
		injector: faults.NewInjector(n.Server(), d, store),
	}
}
