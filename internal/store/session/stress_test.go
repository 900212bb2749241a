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
