package session

import (
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"time"
)

// mustCluster builds an S×N cluster with write quorum w and the given
// clock (nil for immortal leases).
func mustCluster(t testing.TB, s, n, w int, now func() time.Duration, ttl time.Duration) *SSMCluster {
	t.Helper()
	c, err := NewSSMCluster(ClusterConfig{Shards: s, Replicas: n, WriteQuorum: w, Now: now, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSSMClusterBasics(t *testing.T) {
	testStoreBasics(t, mustCluster(t, 4, 3, 2, nil, 0))
}

func TestSSMClusterConfigValidation(t *testing.T) {
	if _, err := NewSSMCluster(ClusterConfig{Replicas: 3, WriteQuorum: 4}); err == nil {
		t.Fatal("W > N should be rejected")
	}
	if _, err := NewSSMCluster(ClusterConfig{Shards: -1}); err == nil {
		t.Fatal("negative shards should be rejected")
	}
	c, err := NewSSMCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	if cfg.Shards != 4 || cfg.Replicas != 3 || cfg.WriteQuorum != 2 {
		t.Fatalf("defaults = %d×%d W=%d", cfg.Shards, cfg.Replicas, cfg.WriteQuorum)
	}
	if len(c.Bricks()) != 12 {
		t.Fatalf("bricks = %d, want 12", len(c.Bricks()))
	}
}

func TestHashRingSpreadsSessions(t *testing.T) {
	c := mustCluster(t, 4, 1, 1, nil, 0)
	for i := 0; i < 400; i++ {
		if err := c.Write(sampleSession(fmt.Sprintf("sess-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range c.Bricks() {
		if b.Len() == 0 {
			t.Fatalf("shard %d got no sessions — ring badly skewed", b.Shard())
		}
	}
	if c.Len() != 400 {
		t.Fatalf("Len = %d, want 400", c.Len())
	}
}

func TestIDHashIsCRC32(t *testing.T) {
	// Ring placement must not depend on how the id is hashed.
	for _, id := range []string{"", "s1", "sess-ü", "bench-probe", "sess-0123456789abcdef0123456789abcdef0123456789abcdef0123456789"} {
		if got, want := idHash(id), crc32.ChecksumIEEE([]byte(id)); got != want {
			t.Fatalf("idHash(%q) = %08x, want %08x", id, got, want)
		}
	}
}

func TestClusterQuorumOneBrickDown(t *testing.T) {
	c := mustCluster(t, 2, 3, 2, nil, 0)
	for i := 0; i < 40; i++ {
		if err := c.Write(sampleSession(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash one replica of every shard: reads and writes must not notice.
	for s := 0; s < 2; s++ {
		if err := c.CrashBrick(fmt.Sprintf("ssm/s%d-r0", s)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Read(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatalf("read s%d with one brick down: %v", i, err)
		}
	}
	if err := c.Write(sampleSession("fresh")); err != nil {
		t.Fatalf("write with one brick down: %v", err)
	}
	if err := c.Delete("s0"); err != nil {
		t.Fatalf("delete with one brick down: %v", err)
	}
	if _, err := c.Read("s0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete = %v, want ErrNotFound", err)
	}
}

func TestClusterQuorumLostErrDown(t *testing.T) {
	c := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c.Write(sampleSession("s")); err != nil {
		t.Fatal(err)
	}
	// Two of three replicas down: the write quorum is unreachable.
	for _, name := range []string{"ssm/s0-r0", "ssm/s0-r1"} {
		if err := c.CrashBrick(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Write(sampleSession("t")); !errors.Is(err, ErrDown) {
		t.Fatalf("write with quorum lost = %v, want ErrDown", err)
	}
	if err := c.Delete("s"); !errors.Is(err, ErrDown) {
		t.Fatalf("delete with quorum lost = %v, want ErrDown", err)
	}
	// Read-from-any-live-replica still serves from the last survivor.
	if _, err := c.Read("s"); err != nil {
		t.Fatalf("read from last survivor: %v", err)
	}
	// All three down: every operation reports the store unavailable.
	if err := c.CrashBrick("ssm/s0-r2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("s"); !errors.Is(err, ErrDown) {
		t.Fatalf("read with shard dead = %v, want ErrDown", err)
	}
	if err := c.Write(sampleSession("u")); !errors.Is(err, ErrDown) {
		t.Fatalf("write with shard dead = %v, want ErrDown", err)
	}
}

func TestClusterBrickCrashLosesNothingAndRereplicates(t *testing.T) {
	c := mustCluster(t, 4, 3, 2, nil, 0)
	const sessions = 100
	for i := 0; i < sessions; i++ {
		if err := c.Write(sampleSession(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Bricks()[0]
	lost := victim.Crash()
	if lost == 0 {
		t.Fatal("victim brick held nothing — test is vacuous")
	}
	if got := c.DeadBricks(); len(got) != 1 || got[0] != victim.Name() {
		t.Fatalf("DeadBricks = %v", got)
	}
	// Zero session loss: every session still readable from replicas.
	for i := 0; i < sessions; i++ {
		if _, err := c.Read(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatalf("session s%d lost to a single brick crash: %v", i, err)
		}
	}
	var restarted *Brick
	c.OnBrickRestart(func(b *Brick) { restarted = b })
	d, err := c.RestartBrick(victim.Name())
	if err != nil {
		t.Fatal(err)
	}
	if d != BrickRestartTime {
		t.Fatalf("restart duration = %v, want %v", d, BrickRestartTime)
	}
	if restarted != victim {
		t.Fatal("OnBrickRestart callback did not fire for the victim")
	}
	if victim.Len() != lost {
		t.Fatalf("re-replication restored %d entries, want %d", victim.Len(), lost)
	}
	if victim.Restarts() != 1 || !victim.Up() {
		t.Fatalf("lifecycle counters wrong: restarts=%d up=%v", victim.Restarts(), victim.Up())
	}
	if len(c.DeadBricks()) != 0 {
		t.Fatalf("DeadBricks after restart = %v", c.DeadBricks())
	}
}

func TestClusterChecksumCorruptionSelfHeals(t *testing.T) {
	c := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c.Write(sampleSession("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.CorruptBits("v"); err != nil {
		t.Fatal(err)
	}
	// The damaged replica discards its copy; a healthy peer serves the
	// read and read-repair restores full replication.
	got, err := c.Read("v")
	if err != nil {
		t.Fatalf("read after single-replica corruption: %v", err)
	}
	if got.UserID != 42 {
		t.Fatalf("healed read returned %+v", got)
	}
	if c.Discarded() != 1 {
		t.Fatalf("Discarded = %d, want 1", c.Discarded())
	}
	for _, b := range c.Bricks() {
		if b.Len() != 1 {
			t.Fatalf("brick %s not repaired: len=%d", b.Name(), b.Len())
		}
	}
	if err := c.CorruptBits("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CorruptBits missing = %v", err)
	}
}

func TestClusterAllCopiesCorruptDiscards(t *testing.T) {
	c := mustCluster(t, 1, 2, 2, nil, 0)
	if err := c.Write(sampleSession("v")); err != nil {
		t.Fatal(err)
	}
	for _, b := range c.Bricks() {
		if !b.corruptBits("v") {
			t.Fatal("brick missing the entry")
		}
	}
	if _, err := c.Read("v"); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("read = %v, want ErrCorrupted", err)
	}
	if _, err := c.Read("v"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second read = %v, want ErrNotFound (bad copies discarded)", err)
	}
}

func TestClusterLeaseExpiryAndReap(t *testing.T) {
	var now time.Duration
	c := mustCluster(t, 2, 3, 2, func() time.Duration { return now }, time.Minute)
	_ = c.Write(sampleSession("a"))
	_ = c.Write(sampleSession("b"))
	now = 30 * time.Second
	_ = c.Write(sampleSession("c"))
	// A read renews c's lease across replicas.
	if _, err := c.Read("c"); err != nil {
		t.Fatal(err)
	}
	now = 90 * time.Second
	if n := c.ReapExpired(); n != 2 {
		t.Fatalf("ReapExpired = %d, want 2 (a, b orphaned)", n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, err := c.Read("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read reaped = %v, want ErrNotFound", err)
	}
}

func TestClusterSlowBrickBypass(t *testing.T) {
	c := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c.Write(sampleSession("s")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetBrickSlow("ssm/s0-r0", true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Read("s"); err != nil {
			t.Fatal(err)
		}
	}
	if c.SlowBypasses() != 5 || c.SlowServedReads() != 0 {
		t.Fatalf("bypasses=%d served=%d, want 5/0", c.SlowBypasses(), c.SlowServedReads())
	}
	// A slow brick is still the reader of last resort.
	_ = c.CrashBrick("ssm/s0-r1")
	_ = c.CrashBrick("ssm/s0-r2")
	if _, err := c.Read("s"); err != nil {
		t.Fatalf("read from slow last resort: %v", err)
	}
	if c.SlowServedReads() != 1 {
		t.Fatalf("SlowServedReads = %d, want 1", c.SlowServedReads())
	}
}

func TestStaleRepairCannotUndoNewerWrite(t *testing.T) {
	// Regression: read-repair used to writeback the entry it served onto
	// every replica unconditionally, so a read racing a newer Write could
	// overwrite the new value cluster-wide with the old one.
	c := mustCluster(t, 1, 3, 2, nil, 0)
	old := sampleSession("x")
	if err := c.Write(old); err != nil {
		t.Fatal(err)
	}
	// Capture the v1 entry as a racing reader would have.
	staleEntries, _ := c.Bricks()[0].snapshot()
	stale := staleEntries["x"]
	// A newer write lands on all replicas.
	updated := sampleSession("x")
	updated.UserID = 99
	if err := c.Write(updated); err != nil {
		t.Fatal(err)
	}
	// The racing reader's repair writeback replays the stale entry.
	for _, b := range c.Bricks() {
		_ = b.put("x", stale)
	}
	got, err := c.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != 99 {
		t.Fatalf("stale repair undid a newer write: UserID = %d, want 99", got.UserID)
	}
}

func TestTombstoneBlocksResurrectionAfterDelete(t *testing.T) {
	// Regression: a stale repair (or re-replication snapshot) replayed
	// after a Delete used to resurrect the logged-out session.
	c := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c.Write(sampleSession("x")); err != nil {
		t.Fatal(err)
	}
	staleEntries, _ := c.Bricks()[0].snapshot()
	stale := staleEntries["x"]
	if err := c.Delete("x"); err != nil {
		t.Fatal(err)
	}
	for _, b := range c.Bricks() {
		_ = b.put("x", stale)
	}
	if _, err := c.Read("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session resurrected by stale repair: %v", err)
	}
}

func TestRestartMergesTombstones(t *testing.T) {
	// A brick restarted after a delete must inherit the tombstone, or
	// late stale data could resurrect the session on that replica only.
	c := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c.Write(sampleSession("x")); err != nil {
		t.Fatal(err)
	}
	staleEntries, _ := c.Bricks()[0].snapshot()
	stale := staleEntries["x"]
	victim := c.Bricks()[0]
	victim.Crash()
	if err := c.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartBrick(victim.Name()); err != nil {
		t.Fatal(err)
	}
	// Replay stale data onto the restarted brick: the merged tombstone
	// must reject it.
	_ = victim.put("x", stale)
	if n := victim.Len(); n != 0 {
		t.Fatalf("restarted brick accepted stale deleted entry (len=%d)", n)
	}
	if _, err := c.Read("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete = %v, want ErrNotFound", err)
	}
}

func TestRestartDoesNotReplicateCorruptCopies(t *testing.T) {
	// Regression: re-replication used to copy entries without verifying
	// their checksums, so a corrupt replica copy could spread until it
	// outnumbered every good one.
	c := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c.Write(sampleSession("x")); err != nil {
		t.Fatal(err)
	}
	bricks := c.Bricks()
	// Corrupt the first replica's copy (CorruptBits picks the first live
	// holder) and crash the third.
	if err := c.CorruptBits("x"); err != nil {
		t.Fatal(err)
	}
	bricks[2].Crash()
	if _, err := c.RestartBrick(bricks[2].Name()); err != nil {
		t.Fatal(err)
	}
	// The restarted brick must hold the good copy from bricks[1], not the
	// corrupt one from bricks[0].
	entries, _ := bricks[2].snapshot()
	e, ok := entries["x"]
	if !ok {
		t.Fatal("re-replication skipped the session entirely")
	}
	if crc32.ChecksumIEEE(e.blob) != e.checksum {
		t.Fatal("re-replication propagated a corrupt copy")
	}
	if _, err := c.Read("x"); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
}

func TestReapCleansTombstones(t *testing.T) {
	var now time.Duration
	c := mustCluster(t, 1, 2, 2, func() time.Duration { return now }, time.Minute)
	_ = c.Write(sampleSession("x"))
	_ = c.Delete("x")
	b := c.Bricks()[0]
	b.mu.Lock()
	tombs := len(b.tombs)
	b.mu.Unlock()
	if tombs != 1 {
		t.Fatalf("tombstones = %d, want 1", tombs)
	}
	now = 2 * time.Minute
	c.ReapExpired()
	b.mu.Lock()
	tombs = len(b.tombs)
	b.mu.Unlock()
	if tombs != 0 {
		t.Fatalf("tombstones after reap = %d, want 0", tombs)
	}
}

func TestReadPenaltyFollowsRoutingPolicy(t *testing.T) {
	c := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c.Write(sampleSession("s")); err != nil {
		t.Fatal(err)
	}
	if got := c.ReadPenalty("s"); got != 0 {
		t.Fatalf("healthy penalty = %v, want 0", got)
	}
	// One slow replica: routing masks it entirely.
	_ = c.SetBrickSlow("ssm/s0-r0", true)
	if got := c.ReadPenalty("s"); got != 0 {
		t.Fatalf("routed penalty = %v, want 0", got)
	}
	// Every live replica slow: even routing has to wait.
	_ = c.SetBrickSlow("ssm/s0-r1", true)
	_ = c.SetBrickSlow("ssm/s0-r2", true)
	if got := c.ReadPenalty("s"); got != SlowBrickPenalty {
		t.Fatalf("all-slow penalty = %v, want %v", got, SlowBrickPenalty)
	}
}

func TestRestartSnapshotCannotShortenRenewedLease(t *testing.T) {
	// Renewal extends expires without bumping the entry version. A
	// RestartBrick merge snapshots its peers before it puts, so a read
	// that renews the lease in between races it with an equal-version
	// copy carrying the un-renewed expiry; that copy must not shorten the
	// renewed lease.
	var now time.Duration
	c := mustCluster(t, 1, 3, 2, func() time.Duration { return now }, time.Minute)
	if err := c.Write(sampleSession("x")); err != nil {
		t.Fatal(err)
	}
	snap, _ := c.Bricks()[0].snapshot() // expires at 60s
	now = 30 * time.Second
	if _, err := c.Read("x"); err != nil {
		t.Fatal(err)
	}
	if c.RenewalWrites() == 0 {
		t.Fatal("read at 50% TTL did not renew — test is vacuous")
	}
	// The snapshot put lands after the renewal (expires at 90s).
	for _, b := range c.Bricks() {
		_ = b.put("x", snap["x"])
	}
	now = 70 * time.Second
	if _, err := c.Read("x"); err != nil {
		t.Fatalf("renewed session expired early after a snapshot put: %v", err)
	}
}

func TestFailedWriteLeavesNoTrace(t *testing.T) {
	// A write that cannot reach its quorum must not land on the replicas
	// that are up: re-replication would later spread the failed value to
	// the rest of the shard.
	c := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c.Write(sampleSession("x")); err != nil {
		t.Fatal(err)
	}
	bricks := c.Bricks()
	bricks[1].Crash()
	bricks[2].Crash()
	v2 := sampleSession("x")
	v2.UserID = 99
	if err := c.Write(v2); !errors.Is(err, ErrDown) {
		t.Fatalf("write with 1/3 replicas up = %v, want ErrDown", err)
	}
	for _, b := range bricks[1:] {
		if _, err := c.RestartBrick(b.Name()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleSession("x").UserID; got.UserID != want {
		t.Fatalf("failed write surfaced after restart: UserID = %d, want %d", got.UserID, want)
	}
}

func TestDeferredLeaseRenewalCounts(t *testing.T) {
	var now time.Duration
	c := mustCluster(t, 1, 3, 2, func() time.Duration { return now }, time.Minute)
	if err := c.Write(sampleSession("s")); err != nil {
		t.Fatal(err)
	}
	// Fresh lease: reads must not renew (writes would amplify 3×), even
	// once a little of it has elapsed.
	for i := 0; i < 5; i++ {
		now += time.Second
		if _, err := c.Read("s"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.RenewalWrites(); got != 0 {
		t.Fatalf("renewal writes on fresh lease = %d, want 0", got)
	}
	// Past a quarter of the TTL the next read renews on every replica…
	now = 16 * time.Second
	if _, err := c.Read("s"); err != nil {
		t.Fatal(err)
	}
	if got := c.RenewalWrites(); got != 3 {
		t.Fatalf("renewal writes after 25%% TTL = %d, want 3", got)
	}
	// …and the renewed lease suppresses the rounds that follow.
	for i := 0; i < 5; i++ {
		if _, err := c.Read("s"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.RenewalWrites(); got != 3 {
		t.Fatalf("renewal writes after renewal = %d, want still 3", got)
	}
	// The deferred policy still keeps an active session alive forever.
	for i := 0; i < 10; i++ {
		now += 45 * time.Second
		if _, err := c.Read("s"); err != nil {
			t.Fatalf("active session expired under deferred renewal at %v: %v", now, err)
		}
	}
}
