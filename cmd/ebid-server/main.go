// Command ebid-server hosts the crash-only eBid auction application over
// real HTTP, with the microreboot method exposed for remote invocation —
// the live-system counterpart of the simulation experiments.
//
// Usage:
//
//	ebid-server [-addr :8080] [-node name] [-store fasts|ssm-cluster] [-shards S] [-replicas N] [-write-quorum W] [-users N] [-items N] [-wal file] [-shed-watermark N] [-detect-sample N]
//
// Try it:
//
//	curl localhost:8080/ebid/Authenticate?user=3
//	curl -X POST 'localhost:8080/admin/microreboot?component=ViewItem'   # returns once ViewItem is back; duration_ms is the measured work
//	curl -i localhost:8080/ebid/ViewItem?item=1   # 200 again at once; only requests that race the µRB get 503 + Retry-After
//
// With -store ssm-cluster sessions live on a fixed ring of S shards × N
// replica bricks, set at start by -shards and -replicas.
//
// A control plane ticks every 100 ms: its probes sample the front's
// in-flight load and (with a brick cluster) brick heartbeats, and every
// failed request is reported on its bus. Inspect it at
// /admin/controlplane/status and /admin/fleet/status. With
// -shed-watermark N the front sheds session-starting requests (503 +
// Retry-After) past N in-flight requests; with -detect-sample N one in
// N idempotent operations is
// replayed against a known-good shadow instance and any discrepancy is
// published on the bus. With a brick cluster a lease reaper
// garbage-collects lapsed sessions every minute.
//
// The server is crash-only: it has one way to stop, dying, and one way to
// start, recovering. It installs no signal handler, so SIGTERM, SIGINT and
// SIGKILL all end it at once, with no drain and no exit code. A commit
// returns only after its group-commit batch is written to the -wal file,
// and startup against an existing file recovers every committed write, so
// a kill + re-exec "node reboot" loses nothing that was acknowledged. The
// file is never fsynced: durability covers a process kill, not a power
// loss. Requests in flight at a kill are the caller's business;
// cmd/ebid-proxy drains a backend before a deliberate reboot. /healthz
// answers once the server is serving.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/controlplane"
	"repro/internal/detect"
	"repro/internal/ebid"
	"repro/internal/httpfront"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

const (
	// tickInterval is the control plane's cadence: load and brick
	// heartbeat probes.
	tickInterval = 100 * time.Millisecond
	// reapInterval is how often the lease reaper garbage-collects
	// expired SSM sessions.
	reapInterval = time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	nodeName := flag.String("node", "", "fleet identity reported on /healthz and /admin/fleet/status (default http0)")
	storeKind := flag.String("store", "fasts", "session store: fasts or ssm-cluster (a single-node SSM is -store ssm-cluster -shards 1 -replicas 1 -write-quorum 1)")
	shards := flag.Int("shards", 4, "ssm-cluster: hash shards S")
	replicas := flag.Int("replicas", 3, "ssm-cluster: brick replicas N per shard")
	writeQuorum := flag.Int("write-quorum", 2, "ssm-cluster: write quorum W (W ≤ N)")
	users := flag.Int("users", 250, "dataset users")
	items := flag.Int("items", 3300, "dataset items")
	walPath := flag.String("wal", "", "write the database WAL to this file and recover from it at start (without it the database keeps no log)")
	shedWatermark := flag.Int("shed-watermark", 0,
		"admission control: shed session-starting requests with 503 + Retry-After while more than this many requests are in flight (0 disables)")
	detectSample := flag.Int64("detect-sample", 0,
		"comparison detector: replay 1 in N idempotent operations against a known-good shadow instance and publish discrepancies (0 disables)")
	flag.Parse()

	// Crash-safe startup against the WAL: replay what a previous
	// incarnation of this node committed, so a SIGKILL + re-exec recovers
	// everything that was committed. A fresh or empty log gets the seed
	// dataset. Without -wal the database keeps no log at all.
	var database *db.DB
	recovered := false
	if *walPath != "" {
		var err error
		database, _, recovered, err = openWAL(*walPath) // the file is the WAL's sink until the process dies
		if err != nil {
			log.Fatalf("wal: %v", err)
		}
	} else {
		database = db.New(nil)
	}
	if recovered {
		log.Printf("recovered %d tables from the WAL; skipping dataset load", len(database.Tables()))
	} else {
		cfg := ebid.DefaultDataset()
		cfg.Users, cfg.Items = *users, *items
		log.Printf("loading dataset: %d users, %d items", cfg.Users, cfg.Items)
		if err := ebid.LoadDataset(database, cfg); err != nil {
			log.Fatalf("dataset: %v", err)
		}
	}

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	var store session.Store
	var cl *session.SSMCluster
	switch *storeKind {
	case "ssm-cluster":
		var err error
		cl, err = session.NewSSMCluster(session.ClusterConfig{
			Shards:      *shards,
			Replicas:    *replicas,
			WriteQuorum: *writeQuorum,
			Now:         clock,
			LeaseTTL:    session.DefaultLeaseTTL,
		})
		if err != nil {
			log.Fatalf("store: %v", err)
		}
		log.Printf("ssm brick cluster: %d shards × %d replicas, write quorum %d (%d bricks)",
			*shards, *replicas, *writeQuorum, len(cl.Bricks()))
		store = cl
	case "fasts":
		store = session.NewFastS()
	default:
		log.Fatalf("unknown store %q (want fasts or ssm-cluster)", *storeKind)
	}

	app, err := ebid.New(database, store, clock)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	log.Printf("deployed eBid: %d components, session store %s", len(app.Server.Components()), store.Name())

	// Background lease reaper: ReapExpired finally runs outside the
	// simulations, completing the lease story for the live SSM (FastS has
	// no leases to reap).
	if cl != nil {
		go func() {
			for range time.Tick(reapInterval) {
				if n := cl.ReapExpired(); n > 0 {
					log.Printf("lease reaper: collected %d expired sessions", n)
				}
			}
		}()
		log.Printf("lease reaper running every %v", reapInterval)
	}
	front := httpfront.New(app)
	front.Node = *nodeName
	front.ShedWatermark = *shedWatermark
	if *shedWatermark > 0 {
		log.Printf("admission control: shedding new sessions past %d in-flight requests", *shedWatermark)
	}

	// The control plane: every failed request feeds its bus through the
	// HTTP front end, and the front's own in-flight count is probed as a
	// one-node fleet (visible at /admin/fleet/status). With an SSM brick
	// cluster the probes also report dead bricks.
	plane := controlplane.New(controlplane.Config{Clock: clock, Cluster: clusterOrNil(cl), Fleet: front})
	// An observe-only fleet controller (no balancer to actuate on a
	// single node) keeps the per-node samples for the status surface.
	plane.Use(controlplane.NewFleetController(nil, controlplane.FleetConfig{}))
	if *detectSample > 0 {
		// The known-good shadow instance shares the database (so data
		// evolution matches) but nothing else; only idempotent,
		// session-free operations are replayed.
		shadow, err := ebid.New(database, session.NewFastS(), clock)
		if err != nil {
			log.Fatalf("shadow instance: %v", err)
		}
		front.Sampler = &detect.Sampler{
			Comp:  &detect.Comparison{Good: shadow},
			Every: *detectSample,
			OnDiscrepancy: func(op string, v detect.Verdict) {
				plane.ReportDiscrepancy(op, v.Detail)
				log.Printf("comparison detector: %s: %s (%s)", op, v.Type, v.Detail)
			},
		}
		log.Printf("comparison detector sampling 1 in %d idempotent operations", *detectSample)
	}
	go func() {
		for range time.Tick(tickInterval) {
			plane.Tick()
		}
	}()

	front.Plane = plane
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("serving on %s (node %s, pid %d)", *addr, front.FleetStats()[0].Node, os.Getpid())
	log.Fatalf("serve: %v", (&httpfront.Server{Handler: front.Handler()}).Serve(l))
}

// openWAL opens the WAL file at path, creating it if need be, and
// returns a database that logs to it. It replays what the file's valid
// prefix committed; recovered reports whether that prefix held any
// record. Whatever follows the prefix (a torn or damaged record) is cut
// off and the file is positioned at its end, so new records never land
// inside garbage that the next LoadWAL would stop at.
func openWAL(path string) (d *db.DB, fh *os.File, recovered bool, err error) {
	fh, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, false, err
	}
	loaded, offset, err := db.LoadWAL(fh)
	if err != nil {
		fh.Close()
		return nil, nil, false, fmt.Errorf("reading %s: %w", path, err)
	}
	if err := fh.Truncate(offset); err != nil {
		fh.Close()
		return nil, nil, false, fmt.Errorf("truncating %s to its valid prefix: %w", path, err)
	}
	if _, err := fh.Seek(0, io.SeekEnd); err != nil {
		fh.Close()
		return nil, nil, false, err
	}
	if loaded.Len() == 0 {
		return db.New(db.NewWALWithSink(fh)), fh, false, nil
	}
	log.Printf("wal: recovering %d records from %s", loaded.Len(), path)
	d = db.New(loaded)
	if err := d.Recover(); err != nil {
		fh.Close()
		return nil, nil, false, fmt.Errorf("recovering %s: %w", path, err)
	}
	loaded.AttachSink(fh) // after Recover: it releases the loaded history
	return d, fh, true, nil
}

// clusterOrNil avoids the typed-nil interface trap when no brick cluster
// is configured.
func clusterOrNil(cl *session.SSMCluster) controlplane.ShardCluster {
	if cl == nil {
		return nil
	}
	return cl
}
