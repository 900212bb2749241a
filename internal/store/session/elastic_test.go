package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// writeN writes n sessions "s0".."s<n-1>" and returns their ids.
func writeN(t testing.TB, c *SSMCluster, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := c.Write(sampleSession(id)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// misplaced counts live entries sitting on a brick that is not their
// current-ring owner — zero once a migration has converged.
func misplaced(c *SSMCluster) int {
	n := 0
	for _, b := range c.Bricks() {
		for _, id := range b.ids() {
			if c.ShardFor(id) != b.Shard() {
				n++
			}
		}
	}
	return n
}

func TestAddShardMigratesAndConverges(t *testing.T) {
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 200)
	if v := c.RingVersion(); v != 1 {
		t.Fatalf("ring version = %d, want 1", v)
	}

	shard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if shard != 4 {
		t.Fatalf("new shard id = %d, want 4", shard)
	}
	if v := c.RingVersion(); v != 2 {
		t.Fatalf("ring version = %d, want 2", v)
	}
	if !c.Migrating() {
		t.Fatal("AddShard did not start a migration")
	}
	if len(c.Bricks()) != 15 {
		t.Fatalf("bricks = %d, want 15", len(c.Bricks()))
	}

	// Before any migration, every session is still readable (dual-read).
	for _, id := range ids {
		if _, err := c.Read(id); err != nil {
			t.Fatalf("read %s mid-resize: %v", id, err)
		}
	}

	moved, done := c.MigrateAll()
	if !done {
		t.Fatal("migration did not converge")
	}
	if moved == 0 {
		t.Fatal("no entries migrated to the new shard — ring change vacuous")
	}
	if c.Migrating() {
		t.Fatal("Migrating() still true after convergence")
	}
	if got := c.MigratedEntries(); got < moved {
		t.Fatalf("MigratedEntries = %d, want ≥ %d", got, moved)
	}
	if n := misplaced(c); n != 0 {
		t.Fatalf("%d entries still on non-owner shards", n)
	}
	// The new shard actually took ownership of part of the key space.
	held := 0
	for _, b := range c.Bricks() {
		if b.Shard() == shard {
			held += b.Len()
		}
	}
	if held == 0 {
		t.Fatal("new shard holds nothing after migration")
	}
	if c.Len() != 200 {
		t.Fatalf("Len = %d, want 200", c.Len())
	}
	for _, id := range ids {
		if _, err := c.Read(id); err != nil {
			t.Fatalf("read %s after migration: %v", id, err)
		}
	}
}

func TestRemoveShardDrainsAndRetires(t *testing.T) {
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 200)

	if err := c.RemoveShard(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Elastic().Retiring; got != 0 {
		t.Fatalf("retiring = %d, want shard 0", got)
	}
	// Mid-drain: everything readable, writes land off the retiring shard.
	for _, id := range ids {
		if _, err := c.Read(id); err != nil {
			t.Fatalf("read %s mid-drain: %v", id, err)
		}
	}
	if err := c.Write(sampleSession("fresh")); err != nil {
		t.Fatal(err)
	}
	if s := c.ShardFor("fresh"); s == 0 {
		t.Fatal("write landed on the retiring shard")
	}

	moved, done := c.MigrateAll()
	if !done || moved == 0 {
		t.Fatalf("drain moved=%d done=%v", moved, done)
	}
	if got := c.ShardIDs(); len(got) != 3 || got[0] != 1 {
		t.Fatalf("ShardIDs = %v, want [1 2 3]", got)
	}
	if len(c.Bricks()) != 9 {
		t.Fatalf("bricks = %d, want 9", len(c.Bricks()))
	}
	retired := c.RetiredBricks()
	if len(retired) != 3 {
		t.Fatalf("retired bricks = %d, want 3", len(retired))
	}
	for _, b := range retired {
		if !b.Retired() || b.Up() || b.Len() != 0 {
			t.Fatalf("retired brick %s: retired=%v up=%v len=%d", b.Name(), b.Retired(), b.Up(), b.Len())
		}
		if _, err := c.BrickByName(b.Name()); err == nil {
			t.Fatalf("retired brick %s still resolvable", b.Name())
		}
	}
	if got := c.DeadBricks(); len(got) != 0 {
		t.Fatalf("DeadBricks lists retired bricks: %v", got)
	}
	if c.Len() != 201 {
		t.Fatalf("Len = %d, want 201", c.Len())
	}
	for _, id := range append(ids, "fresh") {
		if _, err := c.Read(id); err != nil {
			t.Fatalf("read %s after drain: %v", id, err)
		}
	}
	// A restart of a retired brick must not resurrect the shard.
	if _, err := c.RestartBrick("ssm/s0-r0"); err == nil {
		t.Fatal("RestartBrick resurrected a retired brick")
	}
}

func TestOneRingChangeAtATime(t *testing.T) {
	c := mustCluster(t, 2, 3, 2, nil, 0)
	writeN(t, c, 50)
	if _, err := c.AddShard(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddShard(); !errors.Is(err, ErrResizing) {
		t.Fatalf("second AddShard = %v, want ErrResizing", err)
	}
	if err := c.RemoveShard(0); !errors.Is(err, ErrResizing) {
		t.Fatalf("RemoveShard mid-migration = %v, want ErrResizing", err)
	}
	if _, done := c.MigrateAll(); !done {
		t.Fatal("migration did not converge")
	}
	if err := c.RemoveShard(99); err == nil {
		t.Fatal("removing an unknown shard should fail")
	}
	c2 := mustCluster(t, 1, 3, 2, nil, 0)
	if err := c2.RemoveShard(0); err == nil {
		t.Fatal("removing the last shard should fail")
	}
}

func TestDualReadPromotesOntoNewOwner(t *testing.T) {
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 200)
	shard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	// Find a session the new ring assigns to the new shard; no migration
	// has run, so its data still lives with the old owner.
	var movedID string
	for _, id := range ids {
		if c.ShardFor(id) == shard {
			movedID = id
			break
		}
	}
	if movedID == "" {
		t.Fatal("no session moved to the new shard — ring change vacuous")
	}
	if _, err := c.Read(movedID); err != nil {
		t.Fatalf("dual-read fallback failed: %v", err)
	}
	// The fallback promoted the entry onto the new owner's replicas.
	held := 0
	for _, b := range c.Bricks() {
		if b.Shard() == shard {
			if _, err := b.get(movedID, 0); err == nil {
				held++
			}
		}
	}
	if held != 3 {
		t.Fatalf("promotion reached %d/3 new-owner replicas", held)
	}
}

func TestDeleteDuringMigrationStaysDeleted(t *testing.T) {
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 200)
	shard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	var movedID string
	for _, id := range ids {
		if c.ShardFor(id) == shard {
			movedID = id
			break
		}
	}
	if movedID == "" {
		t.Fatal("no session moved to the new shard")
	}
	// Delete mid-migration: the tombstone must land on both owners, or
	// the sweep would re-copy the old owner's entry afterward.
	if err := c.Delete(movedID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(movedID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete = %v, want ErrNotFound", err)
	}
	if _, done := c.MigrateAll(); !done {
		t.Fatal("migration did not converge")
	}
	if _, err := c.Read(movedID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("migration resurrected a deleted session: %v", err)
	}
}

func TestMigrationCannotUndoNewerWrite(t *testing.T) {
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 200)
	shard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	var movedID string
	for _, id := range ids {
		if c.ShardFor(id) == shard {
			movedID = id
			break
		}
	}
	if movedID == "" {
		t.Fatal("no session moved to the new shard")
	}
	// Rewrite the session mid-migration: the write lands on the new
	// owner; the stale copy still sits with the old owner.
	updated := sampleSession(movedID)
	updated.UserID = 99
	if err := c.Write(updated); err != nil {
		t.Fatal(err)
	}
	if _, done := c.MigrateAll(); !done {
		t.Fatal("migration did not converge")
	}
	got, err := c.Read(movedID)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != 99 {
		t.Fatalf("migration undid a newer write: UserID = %d, want 99", got.UserID)
	}
}

func TestCrashDuringMigrationStillConverges(t *testing.T) {
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 300)
	shard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	// Migrate a little, then crash one replica of the destination shard
	// mid-stream.
	if _, done := c.MigrateStep(20); done {
		t.Fatal("migration finished in one small step — not mid-stream")
	}
	var victim *Brick
	for _, b := range c.Bricks() {
		if b.Shard() == shard {
			victim = b
			break
		}
	}
	victim.Crash()
	// The drain keeps going: W=2 of the 2 surviving destination replicas
	// still acks every copy.
	if _, done := c.MigrateAll(); !done {
		t.Fatal("migration stalled with one destination replica down")
	}
	for _, id := range ids {
		if _, err := c.Read(id); err != nil {
			t.Fatalf("session %s lost to crash-during-migration: %v", id, err)
		}
	}
	// Restart re-replicates the crashed brick from its shard peers.
	if _, err := c.RestartBrick(victim.Name()); err != nil {
		t.Fatal(err)
	}
	if victim.Len() == 0 {
		t.Fatal("restarted destination brick re-replicated nothing")
	}
	if n := misplaced(c); n != 0 {
		t.Fatalf("%d entries misplaced after restart", n)
	}
}

func TestMigrationStallsWithoutDestinationQuorumThenRecovers(t *testing.T) {
	c := mustCluster(t, 2, 3, 2, nil, 0)
	ids := writeN(t, c, 100)
	shard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	// Kill the whole destination shard: the drain must hold the data on
	// the old owners rather than forget the only durable copies.
	var dst []*Brick
	for _, b := range c.Bricks() {
		if b.Shard() == shard {
			dst = append(dst, b)
		}
	}
	for _, b := range dst {
		b.Crash()
	}
	if moved, done := c.MigrateAll(); done || moved != 0 {
		t.Fatalf("migration moved=%d done=%v with destination shard dead", moved, done)
	}
	for _, id := range ids {
		if _, err := c.Read(id); err != nil {
			t.Fatalf("read %s while migration stalled: %v", id, err)
		}
	}
	for _, b := range dst {
		if _, err := c.RestartBrick(b.Name()); err != nil {
			t.Fatal(err)
		}
	}
	if _, done := c.MigrateAll(); !done {
		t.Fatal("migration did not resume after destination shard recovered")
	}
	if n := misplaced(c); n != 0 {
		t.Fatalf("%d entries misplaced after recovery", n)
	}
}

func TestReadNeverMissesDuringMigration(t *testing.T) {
	// Regression: dual-read used to race the migrator — miss the new
	// owner, the entry moves (copy + forget), miss the old owner — and
	// report a live session as ErrNotFound. A read re-checks the new
	// owner once on an old-owner miss, and follows the ring when its
	// topology snapshot went stale (TestReadFollowsRingChangesPastItsSnapshot);
	// this hammers reads across five grow/shrink cycles to shake the
	// interleavings out.
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 100)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(i*7+w)%len(ids)]
				if _, err := c.Read(id); err != nil {
					select {
					case errCh <- fmt.Errorf("read %s during migration: %w", id, err):
					default:
					}
					return
				}
			}
		}(w)
	}
	for cycle := 0; cycle < 5; cycle++ {
		shard, err := c.AddShard()
		if err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			_, done = c.MigrateStep(16)
		}
		if err := c.RemoveShard(shard); err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			_, done = c.MigrateStep(16)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestReadFollowsRingChangesPastItsSnapshot(t *testing.T) {
	// Regression for two races TestReadNeverMissesDuringMigration hit
	// intermittently: a read whose topology snapshot was overtaken by ring
	// changes looked only at owners the snapshot knew. (1) The entry moved
	// on to an owner the snapshot had never heard of: every owner it knew
	// misses. (2) The snapshot's owner shard was drained and retired: its
	// bricks answer ErrDown. Both are replayed here with a snapshot held
	// across whole ring changes; the read must follow the ring.
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 100)
	before := c.state.Load()
	shard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if _, done := c.MigrateAll(); !done {
		t.Fatal("add migration did not finish")
	}
	var moved []string
	for _, id := range ids {
		if c.ShardFor(id) == shard {
			moved = append(moved, id)
		}
	}
	if len(moved) == 0 {
		t.Fatal("no session moved to the new shard")
	}
	for _, id := range moved {
		if _, err := c.readIn(before, id, 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("stale snapshot read of %s: err %v, want the miss this test is about", id, err)
		}
		if _, err := c.readFrom(before, id); err != nil {
			t.Fatalf("read of %s from a snapshot one ring change old: %v", id, err)
		}
	}

	grown := c.state.Load()
	if err := c.RemoveShard(shard); err != nil {
		t.Fatal(err)
	}
	if _, done := c.MigrateAll(); !done {
		t.Fatal("remove migration did not finish")
	}
	for _, id := range moved {
		if _, err := c.readIn(grown, id, 0); !errors.Is(err, ErrDown) {
			t.Fatalf("retired-owner read of %s: err %v, want the ErrDown this test is about", id, err)
		}
		if _, err := c.readFrom(grown, id); err != nil {
			t.Fatalf("read of %s from a snapshot whose owner retired: %v", id, err)
		}
	}
}

func TestMigrationCannotShortenRenewedLease(t *testing.T) {
	// Regression: lease renewal extends expires without bumping the entry
	// version, and Brick.put used to let an equal-version put overwrite —
	// so a migration copy carrying the old owner's un-renewed expiry
	// clobbered a renewed lease on the new owner and the session expired
	// early.
	var now time.Duration
	c := mustCluster(t, 4, 3, 2, func() time.Duration { return now }, time.Minute)
	ids := writeN(t, c, 100)
	shard, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	var movedID string
	for _, id := range ids {
		if c.ShardFor(id) == shard {
			movedID = id
			break
		}
	}
	if movedID == "" {
		t.Fatal("no session moved to the new shard")
	}
	// Promote onto the new owner via dual-read, then renew there at 30s.
	if _, err := c.Read(movedID); err != nil {
		t.Fatal(err)
	}
	now = 30 * time.Second
	if _, err := c.Read(movedID); err != nil {
		t.Fatal(err)
	}
	if c.RenewalWrites() == 0 {
		t.Fatal("read at 50% TTL did not renew — test is vacuous")
	}
	// The migrator copies the old owner's un-renewed entry (expires=60s);
	// it must not shorten the renewed lease (expires=90s).
	if _, done := c.MigrateAll(); !done {
		t.Fatal("migration did not converge")
	}
	now = 70 * time.Second
	if _, err := c.Read(movedID); err != nil {
		t.Fatalf("renewed session expired early after migration: %v", err)
	}
}

func TestMigrateAllSkipsDeletedWorklistEntriesWithoutStalling(t *testing.T) {
	// Regression: MigrateAll's stall heuristic treated steps that only
	// skipped already-deleted worklist ids as a quorum stall and gave up
	// on a migration that was in fact converging.
	c := mustCluster(t, 4, 3, 2, nil, 0)
	ids := writeN(t, c, 600)
	if _, err := c.AddShard(); err != nil {
		t.Fatal(err)
	}
	// Seed the worklist, then delete far more than two step budgets'
	// worth of queued sessions out from under it.
	if _, done := c.MigrateStep(1); done {
		t.Fatal("migration finished in one entry")
	}
	for _, id := range ids[:550] {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, done := c.MigrateAll(); !done {
		t.Fatal("MigrateAll reported a stall while skipping deleted entries")
	}
	if n := misplaced(c); n != 0 {
		t.Fatalf("%d entries misplaced after convergence", n)
	}
}

func TestDeferredLeaseRenewalCounts(t *testing.T) {
	var now time.Duration
	c := mustCluster(t, 1, 3, 2, func() time.Duration { return now }, time.Minute)
	if err := c.Write(sampleSession("s")); err != nil {
		t.Fatal(err)
	}
	// Fresh lease: reads must not renew (writes would amplify 3×).
	for i := 0; i < 5; i++ {
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
