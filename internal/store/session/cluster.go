package session

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ClusterConfig parameterizes an SSMCluster.
type ClusterConfig struct {
	// Shards is the number of hash shards S (default 4). The ring is
	// built once, at construction, and never changes.
	Shards int
	// Replicas is the number of brick replicas N per shard (default 3).
	Replicas int
	// WriteQuorum is W: a write succeeds once W of the shard's N replicas
	// acknowledge it (default 2). W ≤ N is required.
	WriteQuorum int
	// LeaseTTL is how long a written session stays alive without renewal
	// (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Now supplies virtual time for lease accounting; nil makes leases
	// effectively immortal (useful for unit tests).
	Now func() time.Duration
}

func (c *ClusterConfig) fill() error {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.WriteQuorum == 0 {
		c.WriteQuorum = 2
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.Now == nil {
		c.Now = func() time.Duration { return 0 }
	}
	if c.Shards < 1 || c.Replicas < 1 {
		return fmt.Errorf("session: cluster needs ≥1 shard and ≥1 replica, got %d×%d", c.Shards, c.Replicas)
	}
	if c.WriteQuorum < 1 || c.WriteQuorum > c.Replicas {
		return fmt.Errorf("session: write quorum %d outside 1..%d", c.WriteQuorum, c.Replicas)
	}
	return nil
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint32
	shard int
}

// hashRing maps session ids onto shards via consistent hashing. It is
// immutable once built, so lookups need no lock.
type hashRing struct {
	points []ringPoint
}

// ringVirtualNodes is the number of virtual points per shard; enough to
// spread load within a few percent of uniform.
const ringVirtualNodes = 64

// newHashRing builds the ring over shards 0..shards-1. Virtual-node
// hashes depend only on the shard id, so a session id always lands on
// the same shard for a given shard count.
func newHashRing(shards int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, shards*ringVirtualNodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < ringVirtualNodes; v++ {
			h := crc32.ChecksumIEEE([]byte(fmt.Sprintf("shard-%d#%d", s, v)))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// idHash is crc32.ChecksumIEEE([]byte(id)) computed over the string in
// place: that conversion escapes, and every store operation hashes its id.
func idHash(id string) uint32 {
	h := ^uint32(0)
	for i := 0; i < len(id); i++ {
		h = crc32.IEEETable[byte(h)^id[i]] ^ h>>8
	}
	return ^h
}

func (r *hashRing) lookup(id string) int {
	h := idHash(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// SSMCluster implements Store over a fixed brick cluster: S
// consistent-hash shards × N replica Bricks, write-to-W-of-N and
// read-from-any-live-replica. Session state survives brick crashes as
// long as each shard keeps one live replica holding the data; writes
// need W live replicas. Reads renew the lease once a quarter of it has
// elapsed and repair the entry onto live replicas that missed it
// (read-repair), so replicas re-converge after transient brick outages
// even before explicit re-replication runs.
type SSMCluster struct {
	cfg ClusterConfig

	// ring, shards and bricks are set once by NewSSMCluster. shards[s]
	// holds shard s's replicas; bricks lists every brick, ordered by
	// shard then replica.
	ring   *hashRing
	shards [][]*Brick
	bricks []*Brick

	// version orders writes and deletes cluster-wide; replicas keep the
	// newest version they have seen, so stale repair data loses races.
	version atomic.Uint64

	// renewals counts per-replica lease-renewal writes issued by reads.
	renewals atomic.Int64
	// slowBypasses counts reads served by a healthy replica while a slow
	// one was routed around.
	slowBypasses atomic.Int64
	// slowServed counts reads actually served by a degraded brick (no
	// healthy replica was available).
	slowServed atomic.Int64

	mu sync.Mutex
	// onRestart callbacks fire after a brick restart + re-replication
	// (the fault injector uses this to clear brick faults).
	onRestart []func(*Brick)
}

// NewSSMCluster builds a brick cluster from cfg (zero fields take their
// defaults); it fails on impossible geometries.
func NewSSMCluster(cfg ClusterConfig) (*SSMCluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &SSMCluster{cfg: cfg, ring: newHashRing(cfg.Shards), shards: make([][]*Brick, cfg.Shards)}
	for s := range c.shards {
		replicas := make([]*Brick, cfg.Replicas)
		for r := range replicas {
			replicas[r] = newBrick(s, r)
		}
		c.shards[s] = replicas
		c.bricks = append(c.bricks, replicas...)
	}
	return c, nil
}

// Name implements Store.
func (c *SSMCluster) Name() string { return "SSMCluster" }

// SurvivesProcessRestart implements Store: brick state lives off-node.
func (c *SSMCluster) SurvivesProcessRestart() bool { return true }

// Config returns the cluster geometry, defaults filled in.
func (c *SSMCluster) Config() ClusterConfig { return c.cfg }

// RenewalWrites reports how many per-replica lease-renewal writes reads
// have issued (the read-repair write-amplification the deferred-renewal
// policy bounds).
func (c *SSMCluster) RenewalWrites() int {
	return int(c.renewals.Load())
}

// ShardFor reports which shard a session id hashes to (diagnostic aid).
func (c *SSMCluster) ShardFor(id string) int {
	return c.ring.lookup(id)
}

// owner returns the replica set responsible for id.
func (c *SSMCluster) owner(id string) []*Brick {
	return c.shards[c.ring.lookup(id)]
}

// Bricks returns every brick, ordered by shard then replica.
func (c *SSMCluster) Bricks() []*Brick {
	return append([]*Brick(nil), c.bricks...)
}

// BrickByName finds a brick by its "ssm/s<shard>-r<replica>" name.
func (c *SSMCluster) BrickByName(name string) (*Brick, error) {
	for _, b := range c.bricks {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("session: no brick named %q", name)
}

// ------------------------------------------------------------ store API

// Write implements Store: marshal once, checksum, then write to the
// W-of-N quorum of the id's shard.
func (c *SSMCluster) Write(s *Session) error {
	if s == nil || s.ID == "" {
		return errors.New("session: Write requires a session with an ID")
	}
	blob := marshalSession(s)
	e := ssmEntry{
		blob:     blob,
		checksum: crc32.ChecksumIEEE(blob),
		expires:  c.cfg.Now() + c.cfg.LeaseTTL,
		version:  c.version.Add(1),
	}
	shard := c.owner(s.ID)
	if err := c.quorumReachable(shard); err != nil {
		return err
	}
	acks := 0
	for _, b := range shard {
		if b.put(s.ID, e) == nil {
			acks++
		}
	}
	if acks < c.cfg.WriteQuorum {
		return fmt.Errorf("%w: shard %d acked %d/%d replicas (quorum %d)",
			ErrDown, shard[0].Shard(), acks, len(shard), c.cfg.WriteQuorum)
	}
	return nil
}

// quorumReachable pre-checks that enough replicas are live for a mutation
// to reach its W-of-N quorum, so a doomed mutation does not dirty the
// survivors first.
func (c *SSMCluster) quorumReachable(shard []*Brick) error {
	live := 0
	for _, b := range shard {
		if b.Up() {
			live++
		}
	}
	if live < c.cfg.WriteQuorum {
		return fmt.Errorf("%w: shard %d has %d/%d live replicas (quorum %d)",
			ErrDown, shard[0].Shard(), live, len(shard), c.cfg.WriteQuorum)
	}
	return nil
}

// Read implements Store: it returns the session from any live replica of
// the id's shard, preferring healthy bricks over slow ones, renewing the
// lease once a quarter of the TTL has elapsed, and read-repairing
// replicas observed missing or corrupt. A replica whose copy fails its
// checksum discards it and the read falls through, so single-replica
// corruption is masked and healed. Renewal never rewrites blobs and
// repair is versioned, so a read racing a newer write or a delete cannot
// clobber either.
func (c *SSMCluster) Read(id string) (*Session, error) {
	return c.readShard(c.owner(id), id, c.cfg.Now())
}

// stackReplicas is how many replicas readShard orders and tracks in
// stack arrays; larger shards fall back to the heap.
const stackReplicas = 8

// readShard serves id from one replica set.
func (c *SSMCluster) readShard(shard []*Brick, id string, now time.Duration) (*Session, error) {
	slow := 0
	var orderBuf, repairBuf [stackReplicas]*Brick
	order := orderBuf[:0]
	for _, b := range shard {
		if b.Slow() {
			slow++
			continue
		}
		order = append(order, b)
	}
	if slow > 0 { // degraded replicas are the readers of last resort
		for _, b := range shard {
			if b.Slow() {
				order = append(order, b)
			}
		}
	}

	live := 0
	sawCorrupt := false
	needRepair := repairBuf[:0]
	for _, b := range order {
		e, err := b.get(id, now)
		switch {
		case err == nil:
			if slow > 0 && !b.Slow() {
				c.slowBypasses.Add(1)
			}
			if b.Slow() {
				c.slowServed.Add(1)
			}
			// Deferred renewal: refreshing the lease on every replica read
			// made every read a cluster-wide write. Renew only once more
			// than a quarter of the TTL has elapsed — the lease still
			// cannot lapse under an active session, but a read-heavy
			// session costs at most 4 renewal rounds per TTL.
			if elapsed := now + c.cfg.LeaseTTL - e.expires; elapsed >= c.cfg.LeaseTTL/4 {
				e.expires = now + c.cfg.LeaseTTL
				renewed := 0
				for _, peer := range order {
					if peer.renew(id, e.expires) {
						renewed++
					}
				}
				c.renewals.Add(int64(renewed))
			}
			// Repair the replicas that demonstrably lacked the entry;
			// the versioned put drops the copy if they raced ahead.
			for _, peer := range needRepair {
				_ = peer.put(id, e)
			}
			return unmarshalSession(e.blob)
		case errors.Is(err, ErrDown):
			// Skip and try the next replica.
		case errors.Is(err, ErrCorrupted):
			live++
			sawCorrupt = true
			needRepair = append(needRepair, b)
		default: // ErrNotFound
			live++
			needRepair = append(needRepair, b)
		}
	}
	if live == 0 {
		return nil, fmt.Errorf("%w: shard %d has no live replica", ErrDown, shard[0].Shard())
	}
	if sawCorrupt {
		return nil, fmt.Errorf("%w: %s (all surviving copies corrupt)", ErrCorrupted, id)
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Delete implements Store: like writes, deletes need the W-of-N quorum so
// a majority of replicas agree the session is gone. Each replica keeps a
// versioned tombstone for the lease TTL so stale repair data cannot
// resurrect the session.
func (c *SSMCluster) Delete(id string) error {
	cur := c.owner(id)
	if err := c.quorumReachable(cur); err != nil {
		return err
	}
	version := c.version.Add(1)
	tombExpires := c.cfg.Now() + c.cfg.LeaseTTL
	acks := 0
	for _, b := range cur {
		if b.del(id, version, tombExpires) == nil {
			acks++
		}
	}
	if acks < c.cfg.WriteQuorum {
		return fmt.Errorf("%w: shard %d acked %d/%d replicas (quorum %d)",
			ErrDown, cur[0].Shard(), acks, len(cur), c.cfg.WriteQuorum)
	}
	return nil
}

// Len implements Store: the number of distinct sessions held by live
// replicas (entries awaiting lease GC are counted), each counted once
// however many of its shard's replicas hold it.
func (c *SSMCluster) Len() int {
	seen := map[string]bool{}
	for _, b := range c.bricks {
		for _, id := range b.ids() {
			seen[id] = true
		}
	}
	return len(seen)
}

// SessionIDs returns every distinct live session id, sorted.
func (c *SSMCluster) SessionIDs() []string {
	seen := map[string]bool{}
	for _, b := range c.bricks {
		for _, id := range b.ids() {
			seen[id] = true
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ReapExpired garbage-collects lapsed leases on every brick and returns
// how many distinct sessions were collected.
func (c *SSMCluster) ReapExpired() int {
	now := c.cfg.Now()
	seen := map[string]bool{}
	for _, b := range c.bricks {
		for _, id := range b.reap(now) {
			seen[id] = true
		}
	}
	return len(seen)
}

// Discarded reports how many corrupted entries bricks have discarded.
func (c *SSMCluster) Discarded() int {
	n := 0
	for _, b := range c.bricks {
		n += b.Discarded()
	}
	return n
}

// SlowBypasses reports reads served by a healthy replica while a slow one
// was routed around.
func (c *SSMCluster) SlowBypasses() int {
	return int(c.slowBypasses.Load())
}

// SlowServedReads reports reads that were actually served by a degraded
// brick — the reads that paid the fail-stutter penalty.
func (c *SSMCluster) SlowServedReads() int {
	return int(c.slowServed.Load())
}

// SlowBrickPenalty is the modeled extra response time a session access
// pays when its read is served by a degraded (fail-stutter) brick: the
// brick answers, but late — the failure mode that motivates routing
// reads away from slow replicas instead of waiting them out.
const SlowBrickPenalty = 250 * time.Millisecond

// ReadPenalty reports the fail-stutter latency a read of id would pay:
// zero when a healthy replica serves it, SlowBrickPenalty when every
// live replica of the owner shard is degraded, since reads route around
// slow replicas. The cluster node's service-time model charges this per
// session access.
func (c *SSMCluster) ReadPenalty(id string) time.Duration {
	sawLive := false
	for _, b := range c.owner(id) {
		if !b.Up() {
			continue
		}
		sawLive = true
		if !b.Slow() {
			return 0
		}
	}
	if sawLive {
		return SlowBrickPenalty
	}
	return 0
}

// CorruptBits flips a bit in the first live replica holding id — the
// Table 2 "corrupt data inside SSM" fault, scoped to one brick. The next
// read of the damaged replica discards the copy and falls through to a
// healthy peer.
func (c *SSMCluster) CorruptBits(id string) error {
	for _, b := range c.owner(id) {
		if b.corruptBits(id) {
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrNotFound, id)
}

// DeadBricks lists the names of crashed bricks (recovery polls this the
// way the paper's RM consumes heartbeat-loss reports).
func (c *SSMCluster) DeadBricks() []string {
	var out []string
	for _, b := range c.bricks {
		if !b.Up() {
			out = append(out, b.Name())
		}
	}
	return out
}

// CrashBrick kills the named brick, losing its replica state.
func (c *SSMCluster) CrashBrick(name string) error {
	b, err := c.BrickByName(name)
	if err != nil {
		return err
	}
	b.Crash()
	return nil
}

// SetBrickSlow marks the named brick degraded (or heals it).
func (c *SSMCluster) SetBrickSlow(name string, slow bool) error {
	b, err := c.BrickByName(name)
	if err != nil {
		return err
	}
	b.SetSlow(slow)
	return nil
}

// OnBrickRestart registers a callback fired after a brick restart and
// re-replication complete.
func (c *SSMCluster) OnBrickRestart(fn func(*Brick)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onRestart = append(c.onRestart, fn)
}

// RestartBrick reboots a crashed brick and re-replicates its shard into
// it from the surviving replicas (newest lease wins), restoring full
// N-way redundancy. It returns the modeled restart duration so recovery
// managers can account for it on the simulation timeline; the store
// itself is consistent as soon as RestartBrick returns.
func (c *SSMCluster) RestartBrick(name string) (time.Duration, error) {
	b, err := c.BrickByName(name)
	if err != nil {
		return 0, err
	}
	b.Restart()
	peers := c.shards[b.Shard()]
	merged := map[string]ssmEntry{}
	mergedTombs := map[string]tombstone{}
	for _, peer := range peers {
		if peer == b || !peer.Up() {
			continue
		}
		entries, tombs := peer.snapshot()
		for id, e := range entries {
			// Never replicate a copy that fails its checksum: merging
			// corrupt data would spread the damage until it could
			// outnumber (and eventually replace) every good copy.
			if crc32.ChecksumIEEE(e.blob) != e.checksum {
				continue
			}
			if cur, ok := merged[id]; !ok || e.version > cur.version ||
				(e.version == cur.version && e.expires > cur.expires) {
				merged[id] = e
			}
		}
		for id, t := range tombs {
			if cur, ok := mergedTombs[id]; !ok || t.version > cur.version {
				mergedTombs[id] = t
			}
		}
	}
	// Tombstones first: the versioned put then refuses any snapshot entry
	// that a concurrent delete has already superseded.
	b.adoptTombs(mergedTombs)
	for id, e := range merged {
		_ = b.put(id, e)
	}
	c.mu.Lock()
	callbacks := make([]func(*Brick), len(c.onRestart))
	copy(callbacks, c.onRestart)
	c.mu.Unlock()
	for _, fn := range callbacks {
		fn(b)
	}
	return BrickRestartTime, nil
}

var _ Store = (*SSMCluster)(nil)
