package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stressStore hammers a store with concurrent mixed operations; run under
// -race this is the concurrency-safety net for the striped FastS and the
// brick cluster. extra, when non-nil, runs interleaved maintenance work
// (lease GC, brick crash/restart) from its own goroutine.
func stressStore(t *testing.T, s Store, extra func(stop <-chan struct{})) {
	t.Helper()
	const workers = 16
	const opsPerWorker = 300
	stop := make(chan struct{})
	var maintenance sync.WaitGroup
	if extra != nil {
		maintenance.Add(1)
		go func() {
			defer maintenance.Done()
			extra(stop)
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				id := fmt.Sprintf("sess-%d-%d", w, i%20)
				switch i % 5 {
				case 0, 1:
					if err := s.Write(&Session{ID: id, UserID: int64(i + 1), Data: map[string]string{"k": "v"}}); err != nil && !errors.Is(err, ErrDown) {
						t.Errorf("%s: write: %v", s.Name(), err)
						return
					}
				case 2, 3:
					if _, err := s.Read(id); err != nil &&
						!errors.Is(err, ErrNotFound) && !errors.Is(err, ErrDown) && !errors.Is(err, ErrCorrupted) {
						t.Errorf("%s: read: %v", s.Name(), err)
						return
					}
					s.Len()
				default:
					if err := s.Delete(id); err != nil && !errors.Is(err, ErrDown) {
						t.Errorf("%s: delete: %v", s.Name(), err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	maintenance.Wait()
}

func TestStressStripedFastS(t *testing.T) {
	stressStore(t, NewFastS(), nil)
}

func TestStressSSMClusterWithBrickChaos(t *testing.T) {
	var clock int64
	now := func() time.Duration { return time.Duration(atomic.AddInt64(&clock, 1)) }
	c, err := NewSSMCluster(ClusterConfig{Shards: 4, Replicas: 3, WriteQuorum: 2, Now: now, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Maintenance goroutine: lease GC plus a rolling single-brick
	// crash/restart cycle. At most one brick is ever down, so the W=2
	// quorum stays reachable throughout.
	stressStore(t, c, func(stop <-chan struct{}) {
		bricks := c.Bricks()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.ReapExpired()
			b := bricks[i%len(bricks)]
			i++
			b.Crash()
			if _, err := c.RestartBrick(b.Name()); err != nil {
				t.Errorf("restart %s: %v", b.Name(), err)
				return
			}
		}
	})
	if len(c.DeadBricks()) != 0 {
		t.Fatalf("bricks left dead: %v", c.DeadBricks())
	}
}

func TestStressSSMClusterWithElasticChaos(t *testing.T) {
	var clock int64
	now := func() time.Duration { return time.Duration(atomic.AddInt64(&clock, 1)) }
	c, err := NewSSMCluster(ClusterConfig{Shards: 4, Replicas: 3, WriteQuorum: 2, Now: now, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Maintenance goroutine: a rolling grow/shrink cycle — add a shard,
	// drain, remove it again — with lease GC and a single-brick
	// crash/restart thrown mid-migration. Workers hammer the store
	// throughout; under -race this is the elasticity concurrency net.
	stressStore(t, c, func(stop <-chan struct{}) {
		stopped := func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		}
		// A competing migrator pump, like a second server instance driving
		// the same cluster: MigrateStep is single-flighted, so concurrent
		// steps must never complete someone else's ring change.
		var pump sync.WaitGroup
		pump.Add(1)
		go func() {
			defer pump.Done()
			for !stopped() {
				c.MigrateStep(32)
			}
		}()
		defer pump.Wait()
		for i := 0; !stopped(); i++ {
			c.ReapExpired()
			shard, err := c.AddShard()
			if err != nil {
				t.Errorf("AddShard: %v", err)
				return
			}
			// Crash one pre-existing brick mid-migration, then restart it,
			// so re-replication interleaves with the drain.
			victim := c.Bricks()[i%(4*3)]
			victim.Crash()
			_, _ = c.MigrateStep(64)
			if _, err := c.RestartBrick(victim.Name()); err != nil {
				t.Errorf("restart %s: %v", victim.Name(), err)
				return
			}
			for done := false; !done && !stopped(); {
				_, done = c.MigrateStep(256)
			}
			if stopped() {
				return
			}
			if err := c.RemoveShard(shard); err != nil {
				t.Errorf("RemoveShard(%d): %v", shard, err)
				return
			}
			for done := false; !done && !stopped(); {
				_, done = c.MigrateStep(256)
			}
		}
	})
	if len(c.DeadBricks()) != 0 {
		t.Fatalf("bricks left dead: %v", c.DeadBricks())
	}
	// Whatever state the chaos ended in, every surviving entry must sit
	// on (or be en route to) a live shard and stay readable.
	for _, id := range c.SessionIDs() {
		if _, err := c.Read(id); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("read %s after chaos: %v", id, err)
		}
	}
}
