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
	// Shards is the number of hash shards S the cluster starts with
	// (default 4). AddShard/RemoveShard grow and shrink the ring at
	// runtime; Shards records the construction-time geometry only.
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

// ErrResizing is returned by AddShard/RemoveShard while a previous ring
// change is still migrating; the SSM applies one ring change at a time.
var ErrResizing = errors.New("session: ring change already in progress")

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint32
	shard int
}

// hashRing maps session ids onto shards via consistent hashing. Each ring
// is immutable once built and carries a version; a ring change installs a
// new ring and keeps the old one around until migration drains it, so
// lookups against either generation stay lock-free.
type hashRing struct {
	version uint64
	shards  []int // sorted shard ids on this ring
	points  []ringPoint
}

// ringVirtualNodes is the number of virtual points per shard; enough to
// spread load within a few percent of uniform.
const ringVirtualNodes = 64

// newHashRing builds ring generation version over the given shard ids.
// Virtual-node hashes depend only on the shard id, so adding or removing
// a shard moves only the keys that change owner — the consistent-hashing
// property elasticity relies on.
func newHashRing(version uint64, shardIDs []int) *hashRing {
	ids := append([]int(nil), shardIDs...)
	sort.Ints(ids)
	r := &hashRing{version: version, shards: ids, points: make([]ringPoint, 0, len(ids)*ringVirtualNodes)}
	for _, s := range ids {
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

// SSMCluster implements Store over a brick cluster: S consistent-hash
// shards × N replica Bricks, write-to-W-of-N and read-from-any-live-
// replica. Session state survives brick crashes as long as each shard
// keeps one live replica holding the data; writes need W live replicas.
// Reads renew the lease once a quarter of it has elapsed and repair the
// entry onto live replicas that missed it (read-repair), so replicas
// re-converge after transient brick outages even before explicit
// re-replication runs.
//
// The ring is elastic: AddShard and RemoveShard install a new ring
// generation at runtime, and a background migrator (MigrateStep) streams
// every entry whose owner changed from its old shard to its new one.
// While a migration is in flight, reads consult the new owner first and
// fall back to the previous ring's owner (dual-read), promoting what they
// find; writes land on the new owner only; deletes tombstone both. The
// versioned entries and tombstones guarantee a migration copy can never
// undo a newer write or resurrect a deleted session.
type SSMCluster struct {
	cfg ClusterConfig

	// version orders writes and deletes cluster-wide; replicas keep the
	// newest version they have seen, so stale repair data loses races.
	version atomic.Uint64

	// state is the current ring topology. It is an immutable snapshot
	// swapped atomically on every ring change, so the per-operation
	// owner lookups stay lock-free the way the fixed-ring design's were.
	state atomic.Pointer[ringState]

	// migrateMu single-flights MigrateStep: ring changes only happen
	// while no migration is in flight, and a migration only completes
	// inside the step that drained it, so holding this across a step
	// pins the topology the sweep works against.
	migrateMu sync.Mutex
	// migQueue is the drain worklist: the misplaced ids collected once
	// per ring generation (migRing identifies the generation), consumed
	// by successive MigrateSteps so a bounded step costs O(step), not a
	// full cluster sweep. Guarded by migrateMu.
	migQueue []string
	migRing  *hashRing

	// migrated counts entries moved by the migrator, cumulatively.
	migrated atomic.Int64
	// renewals counts per-replica lease-renewal writes issued by reads.
	renewals atomic.Int64
	// slowBypasses counts reads served by a healthy replica while a slow
	// one was routed around.
	slowBypasses atomic.Int64
	// slowServed counts reads actually served by a degraded brick (no
	// healthy replica was available).
	slowServed atomic.Int64

	mu        sync.Mutex
	nextShard int
	// retired holds the bricks of removed shards (diagnostics only).
	retired []*Brick
	// onRestart callbacks fire after a brick restart + re-replication
	// (the fault injector uses this to clear brick faults).
	onRestart []func(*Brick)
}

// ringState is one immutable generation of the cluster topology: the
// current ring, the pre-change ring while a migration drains it, and the
// shard → replica-bricks map (rebuilt, never mutated, on ring changes).
type ringState struct {
	ring *hashRing
	// prev is non-nil while the migrator is still draining the previous
	// ring generation.
	prev *hashRing
	// shards maps shard id → its replica bricks. Ids are stable and
	// never reused; a removed shard leaves the map once drained.
	shards map[int][]*Brick
	// retiring is the shard id being drained toward removal (-1: none).
	retiring int
}

// shardIDs returns the state's live shard ids, sorted.
func (st *ringState) shardIDs() []int {
	ids := make([]int, 0, len(st.shards))
	for id := range st.shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// cloneShards copies the shard map for a new state generation.
func (st *ringState) cloneShards() map[int][]*Brick {
	shards := make(map[int][]*Brick, len(st.shards)+1)
	for id, bricks := range st.shards {
		shards[id] = bricks
	}
	return shards
}

// NewSSMCluster builds a brick cluster from cfg; it panics only on
// impossible configurations (use cfg defaults for zero fields).
func NewSSMCluster(cfg ClusterConfig) (*SSMCluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &SSMCluster{cfg: cfg, nextShard: cfg.Shards}
	st := &ringState{shards: map[int][]*Brick{}, retiring: -1}
	ids := make([]int, 0, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		replicas := make([]*Brick, cfg.Replicas)
		for r := range replicas {
			replicas[r] = newBrick(s, r)
		}
		st.shards[s] = replicas
		ids = append(ids, s)
	}
	st.ring = newHashRing(1, ids)
	c.state.Store(st)
	return c, nil
}

// Name implements Store.
func (c *SSMCluster) Name() string { return "SSMCluster" }

// SurvivesProcessRestart implements Store: brick state lives off-node.
func (c *SSMCluster) SurvivesProcessRestart() bool { return true }

// Config returns the construction-time cluster geometry (ShardIDs
// reflects elastic changes).
func (c *SSMCluster) Config() ClusterConfig { return c.cfg }

// ShardIDs returns the live shard ids, sorted.
func (c *SSMCluster) ShardIDs() []int {
	return c.state.Load().shardIDs()
}

// RingVersion returns the current ring generation (1 at construction,
// +1 per AddShard/RemoveShard).
func (c *SSMCluster) RingVersion() uint64 {
	return c.state.Load().ring.version
}

// Migrating reports whether a ring change is still draining.
func (c *SSMCluster) Migrating() bool {
	return c.state.Load().prev != nil
}

// MigratedEntries reports how many entries the migrator has moved since
// construction.
func (c *SSMCluster) MigratedEntries() int {
	return int(c.migrated.Load())
}

// RenewalWrites reports how many per-replica lease-renewal writes reads
// have issued (the read-repair write-amplification the deferred-renewal
// policy bounds).
func (c *SSMCluster) RenewalWrites() int {
	return int(c.renewals.Load())
}

// ElasticStatus is a point-in-time view of the ring for operators.
type ElasticStatus struct {
	RingVersion uint64 `json:"ring_version"`
	Shards      []int  `json:"shards"`
	Migrating   bool   `json:"migrating"`
	// Retiring is the shard id draining toward removal, -1 when none.
	Retiring int `json:"retiring"`
	// Migrated is the cumulative entry count moved by the migrator.
	Migrated int `json:"migrated_entries"`
	// Renewals is the cumulative lease-renewal write count.
	Renewals int `json:"renewal_writes"`
}

// Elastic returns the current ring status.
func (c *SSMCluster) Elastic() ElasticStatus {
	st := c.state.Load()
	return ElasticStatus{
		RingVersion: st.ring.version,
		Shards:      st.shardIDs(),
		Migrating:   st.prev != nil,
		Retiring:    st.retiring,
		Migrated:    int(c.migrated.Load()),
		Renewals:    int(c.renewals.Load()),
	}
}

// ShardFor reports which shard a session id hashes to under the current
// ring (diagnostic aid).
func (c *SSMCluster) ShardFor(id string) int {
	return c.state.Load().ring.lookup(id)
}

// Bricks returns every live brick, ordered by shard then replica.
// Retired bricks are excluded.
func (c *SSMCluster) Bricks() []*Brick {
	st := c.state.Load()
	var out []*Brick
	for _, id := range st.shardIDs() {
		out = append(out, st.shards[id]...)
	}
	return out
}

// RetiredBricks returns the bricks of shards removed from the ring.
func (c *SSMCluster) RetiredBricks() []*Brick {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Brick(nil), c.retired...)
}

// BrickByName finds a live brick by its "ssm/s<shard>-r<replica>" name.
func (c *SSMCluster) BrickByName(name string) (*Brick, error) {
	for _, b := range c.Bricks() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("session: no brick named %q", name)
}

// owners resolves the replica sets responsible for id: the current
// ring's shard, plus the previous ring's shard when a migration is in
// flight and ownership differs. Lock-free: the state snapshot is
// immutable.
func (st *ringState) owners(id string) (cur, old []*Brick) {
	curShard := st.ring.lookup(id)
	cur = st.shards[curShard]
	if st.prev != nil {
		if prevShard := st.prev.lookup(id); prevShard != curShard {
			old = st.shards[prevShard]
		}
	}
	return cur, old
}

// ------------------------------------------------------------ elasticity

// AddShard grows the ring by one shard of Replicas fresh bricks and
// installs the new ring generation. Entries whose owner changed migrate
// in the background (MigrateStep); until the drain completes, reads fall
// back to the previous ring, so no session is ever unreachable. One ring
// change runs at a time: AddShard fails with ErrResizing mid-migration.
// It returns the new shard's id.
func (c *SSMCluster) AddShard() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	if st.prev != nil {
		return 0, ErrResizing
	}
	id := c.nextShard
	c.nextShard++
	replicas := make([]*Brick, c.cfg.Replicas)
	for r := range replicas {
		replicas[r] = newBrick(id, r)
	}
	next := &ringState{shards: st.cloneShards(), prev: st.ring, retiring: -1}
	next.shards[id] = replicas
	next.ring = newHashRing(st.ring.version+1, next.shardIDs())
	c.state.Store(next)
	return id, nil
}

// RemoveShard shrinks the ring: shard id stops owning keys immediately
// (the new ring generation excludes it) and its entries drain to their
// new owners in the background. The shard's bricks are retired once the
// drain completes. Removing the last shard, an unknown shard, or a shard
// while another ring change is migrating is an error.
func (c *SSMCluster) RemoveShard(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	if st.prev != nil {
		return ErrResizing
	}
	if _, ok := st.shards[id]; !ok {
		return fmt.Errorf("session: no shard %d", id)
	}
	if len(st.shards) == 1 {
		return errors.New("session: cannot remove the last shard")
	}
	var ids []int
	for _, s := range st.shardIDs() {
		if s != id {
			ids = append(ids, s)
		}
	}
	next := &ringState{shards: st.cloneShards(), prev: st.ring, retiring: id}
	next.ring = newHashRing(st.ring.version+1, ids)
	c.state.Store(next)
	return nil
}

// collectMisplaced scans every live brick for ids sitting on a shard
// that is not their current-ring owner. One full-cluster scan; the
// result seeds (or verifies) the drain worklist.
func (c *SSMCluster) collectMisplaced(st *ringState) []string {
	seen := map[string]bool{}
	for _, sid := range st.shardIDs() {
		for _, b := range st.shards[sid] {
			for _, id := range b.ids() {
				if st.ring.lookup(id) != sid {
					seen[id] = true
				}
			}
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// MigrateStep advances the background migrator by at most max entries.
// The first step of a ring generation collects the misplaced ids into a
// worklist (one full-cluster scan); each step then drains up to max of
// them: the newest checksum-valid copy across the old owner's replicas
// is copied to the new owner's replicas (versioned put — a newer write
// or tombstone on the destination wins), and the old copies are
// forgotten once W new-owner replicas ack. A copy that cannot reach
// quorum is requeued — migration never loses the only copy. When the
// worklist empties, a verifying rescan catches stragglers (a brick
// restart can re-replicate misplaced copies); only an empty rescan
// completes the migration: the previous ring is dropped and, after a
// RemoveShard, the drained shard's bricks retire.
//
// Steps are single-flighted: while one runs, ring changes are refused
// (ErrResizing, since prev != nil) and no other step can complete the
// drain, so the topology a step works against cannot shift under it.
// Callers schedule steps however suits them: a goroutine ticker in the
// live server, simulation timer events in the experiments, a tight loop
// in tests (MigrateAll).
func (c *SSMCluster) MigrateStep(max int) (moved int, done bool) {
	moved, done, _ = c.migrateStep(max)
	return moved, done
}

// migrateStep is MigrateStep plus the stall signal: stalled reports that
// at least one copy failed its destination write quorum this step (the
// entry was requeued). MigrateAll uses it to distinguish a quorum-less
// destination from a step that merely skipped already-gone worklist ids.
func (c *SSMCluster) migrateStep(max int) (moved int, done, stalled bool) {
	c.migrateMu.Lock()
	defer c.migrateMu.Unlock()
	st := c.state.Load()
	if st.prev == nil {
		return 0, true, false
	}
	// (Re)build the worklist on the first step of this ring generation.
	// Ring pointers identify generations: the ring cannot change while
	// prev != nil, so a stale worklist is impossible mid-drain.
	if c.migRing != st.ring {
		c.migQueue = c.collectMisplaced(st)
		c.migRing = st.ring
	}

	pending := false
	var requeue []string
	// The budget bounds ids examined, not successful moves, so a step
	// stays O(max) even when a quorum-less destination fails every copy.
	for examined := 0; examined < max && len(c.migQueue) > 0; examined++ {
		id := c.migQueue[0]
		c.migQueue = c.migQueue[1:]
		src := st.shards[st.prev.lookup(id)]
		dstShard := st.ring.lookup(id)
		// The newest intact copy across the old owner's replicas: one
		// copy per logical entry, never a corrupt one — a healthy
		// replica (or read-repair) covers the entry instead.
		var best ssmEntry
		found := false
		for _, b := range src {
			e, ok := b.peek(id)
			if !ok || crc32.ChecksumIEEE(e.blob) != e.checksum {
				continue
			}
			if !found || e.version > best.version ||
				(e.version == best.version && e.expires > best.expires) {
				best, found = e, true
			}
		}
		if !found {
			// Already moved, deleted, or promoted and forgotten — or the
			// id was collected off a non-prev-owner brick (a promotion
			// the verifying rescan will confirm settled).
			continue
		}
		acks := 0
		for _, ob := range st.shards[dstShard] {
			if ob.put(id, best) == nil {
				acks++
			}
		}
		if acks < c.cfg.WriteQuorum {
			// The new owner cannot durably take the entry yet (crashed
			// replicas); keep the old copies and retry later.
			pending = true
			requeue = append(requeue, id)
			continue
		}
		for _, b := range src {
			b.forget(id, best.version)
		}
		moved++
	}
	c.migQueue = append(c.migQueue, requeue...)
	if moved > 0 {
		c.migrated.Add(int64(moved))
	}
	if len(c.migQueue) > 0 || pending {
		return moved, false, pending
	}
	// Worklist drained: rescan to verify nothing was reintroduced while
	// we drained (brick restart re-replication, racing promotions).
	if rest := c.collectMisplaced(st); len(rest) > 0 {
		c.migQueue = rest
		return moved, false, false
	}
	c.migQueue, c.migRing = nil, nil

	// Drain verified empty: complete the migration. The single-flight
	// lock means no ring change happened mid-step, but be defensive.
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Load()
	if cur.ring != st.ring || cur.prev == nil {
		return moved, cur.prev == nil, false
	}
	next := &ringState{ring: cur.ring, shards: cur.shards, retiring: -1}
	if cur.retiring >= 0 {
		bricks := cur.shards[cur.retiring]
		next.shards = cur.cloneShards()
		delete(next.shards, cur.retiring)
		for _, b := range bricks {
			b.retire()
		}
		c.retired = append(c.retired, bricks...)
	}
	c.state.Store(next)
	return moved, true, false
}

// migrateBatch is the per-step entry budget MigrateAll uses.
const migrateBatch = 256

// MigrateAll drives MigrateStep until the migration completes or stalls
// (a destination shard cannot reach its write quorum). It returns the
// total entries moved and whether the drain finished. Steps that merely
// skip already-gone worklist ids (sessions deleted or reaped since the
// list was collected) count as progress, not a stall.
func (c *SSMCluster) MigrateAll() (moved int, done bool) {
	stalls := 0
	// The iteration cap is a backstop against a bug ever wedging the
	// drain into skip/rescan cycles; real migrations finish in
	// ~entries/migrateBatch steps.
	for i := 0; i < 100000; i++ {
		n, ok, stalled := c.migrateStep(migrateBatch)
		moved += n
		if ok {
			return moved, true
		}
		// Quorum-stalled steps that move nothing twice in a row mean the
		// destination shard is down; give the caller the partial result
		// rather than spinning until it recovers.
		if stalled && n == 0 {
			if stalls++; stalls >= 2 {
				return moved, false
			}
		} else {
			stalls = 0
		}
	}
	return moved, false
}

// ------------------------------------------------------------ store API

// Write implements Store: marshal once, checksum, then write to the
// W-of-N quorum of the id's current-ring shard. Mid-migration writes land
// on the new owner only — dual-read covers the transition, and the
// version stamp makes any stale migration copy lose.
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
	shard, _ := c.state.Load().owners(s.ID)
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
// the id's owner shard, preferring healthy bricks over slow ones,
// renewing the lease once a quarter of the TTL has elapsed, and
// read-repairing replicas observed missing or corrupt. While a ring
// change is migrating, a miss on the new owner falls back to the previous
// ring's owner (dual-read); a hit there is promoted onto the new owner so
// the next read finds it in place. A replica whose copy fails its
// checksum discards it and the read falls through, so single-replica
// corruption is masked and healed. Renewal never rewrites blobs and
// repair is versioned, so a read racing a newer write or a delete cannot
// clobber either.
//
// A read works against one topology snapshot. If it misses or finds its
// owners down and the ring has changed since, the entry may have moved
// past every owner the snapshot knew (the migration completed and retired
// the old shard, or a second ring change moved it again), so the read is
// retried against the fresh snapshot. Each retry needs another ring
// change, so a read retries at most once per ring change it overlaps.
func (c *SSMCluster) Read(id string) (*Session, error) {
	return c.readFrom(c.state.Load(), id)
}

// readFrom is Read starting from the topology snapshot st.
func (c *SSMCluster) readFrom(st *ringState, id string) (*Session, error) {
	now := c.cfg.Now()
	for {
		s, err := c.readIn(st, id, now)
		if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrDown) {
			return s, err
		}
		fresh := c.state.Load()
		if fresh == st {
			return nil, err
		}
		st = fresh
	}
}

// readIn is one Read attempt against the topology snapshot st.
func (c *SSMCluster) readIn(st *ringState, id string, now time.Duration) (*Session, error) {
	cur, old := st.owners(id)
	s, _, err := c.readShard(cur, id, now)
	if err == nil || old == nil || errors.Is(err, ErrCorrupted) {
		return s, err
	}
	sOld, eOld, errOld := c.readShard(old, id, now)
	if errOld != nil {
		// The migrator may have moved the entry old→new between our two
		// checks (miss the new owner, migrate, miss the old owner); one
		// re-check of the new owner closes that window, since entries
		// only ever move in that direction within one snapshot.
		if errors.Is(errOld, ErrNotFound) {
			if s, _, retryErr := c.readShard(cur, id, now); retryErr == nil {
				return s, nil
			}
		}
		// With the new owner unreachable the entry may still exist there,
		// so never let the old owner's miss claim it is gone.
		if errors.Is(err, ErrDown) {
			return nil, err
		}
		return nil, errOld
	}
	// Promote onto the new owner: the migration sweep forgets the old
	// copy later. The versioned put keeps a racing newer write intact.
	for _, b := range cur {
		_ = b.put(id, eOld)
	}
	return sOld, nil
}

// stackReplicas is how many replicas readShard orders and tracks in
// stack arrays; larger shards fall back to the heap.
const stackReplicas = 8

// readShard serves id from one replica set, returning the decoded
// session and the raw entry (for dual-read promotion).
func (c *SSMCluster) readShard(shard []*Brick, id string, now time.Duration) (*Session, ssmEntry, error) {
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
			s, uerr := unmarshalSession(e.blob)
			return s, e, uerr
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
		return nil, ssmEntry{}, fmt.Errorf("%w: shard %d has no live replica", ErrDown, shard[0].Shard())
	}
	if sawCorrupt {
		return nil, ssmEntry{}, fmt.Errorf("%w: %s (all surviving copies corrupt)", ErrCorrupted, id)
	}
	return nil, ssmEntry{}, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Delete implements Store: like writes, deletes need the W-of-N quorum so
// a majority of replicas agree the session is gone. Each replica keeps a
// versioned tombstone for the lease TTL so stale repair data cannot
// resurrect the session. Mid-migration the previous ring's owner is
// tombstoned too — otherwise a dual-read fallback or the migration sweep
// could bring the session back from the old shard.
func (c *SSMCluster) Delete(id string) error {
	cur, old := c.state.Load().owners(id)
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
	for _, b := range old {
		_ = b.del(id, version, tombExpires)
	}
	if acks < c.cfg.WriteQuorum {
		return fmt.Errorf("%w: shard %d acked %d/%d replicas (quorum %d)",
			ErrDown, cur[0].Shard(), acks, len(cur), c.cfg.WriteQuorum)
	}
	return nil
}

// Len implements Store: the number of distinct sessions held by live
// replicas (entries awaiting lease GC are counted). Distinct
// cluster-wide, so an entry mid-migration — briefly on both its old and
// new owner — counts once.
func (c *SSMCluster) Len() int {
	seen := map[string]bool{}
	for _, b := range c.Bricks() {
		for _, id := range b.ids() {
			seen[id] = true
		}
	}
	return len(seen)
}

// SessionIDs returns every distinct live session id, sorted.
func (c *SSMCluster) SessionIDs() []string {
	seen := map[string]bool{}
	for _, b := range c.Bricks() {
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
	for _, b := range c.Bricks() {
		for _, id := range b.reap(now) {
			seen[id] = true
		}
	}
	return len(seen)
}

// Discarded reports how many corrupted entries bricks have discarded.
func (c *SSMCluster) Discarded() int {
	n := 0
	for _, b := range c.Bricks() {
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

// ShardPopulations reports the distinct session population per live
// shard (the union over each shard's live replicas, so a missed
// replication does not undercount). The control plane's load probe
// samples this; entries awaiting lease GC are counted, as in Len.
func (c *SSMCluster) ShardPopulations() map[int]int {
	st := c.state.Load()
	out := make(map[int]int, len(st.shards))
	for _, sid := range st.shardIDs() {
		seen := map[string]bool{}
		for _, b := range st.shards[sid] {
			for _, id := range b.ids() {
				seen[id] = true
			}
		}
		out[sid] = len(seen)
	}
	return out
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
	shard, _ := c.state.Load().owners(id)
	sawLive := false
	for _, b := range shard {
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
// healthy peer. Mid-migration the previous owner is checked too.
func (c *SSMCluster) CorruptBits(id string) error {
	cur, old := c.state.Load().owners(id)
	for _, b := range append(append([]*Brick(nil), cur...), old...) {
		if b.corruptBits(id) {
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrNotFound, id)
}

// DeadBricks lists the names of crashed bricks (recovery polls this the
// way the paper's RM consumes heartbeat-loss reports). Retired bricks are
// not dead — their shard no longer exists.
func (c *SSMCluster) DeadBricks() []string {
	var out []string
	for _, b := range c.Bricks() {
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
// itself is consistent as soon as RestartBrick returns. Restarting a
// brick whose shard was removed from the ring fails: retired bricks
// never come back.
func (c *SSMCluster) RestartBrick(name string) (time.Duration, error) {
	b, err := c.BrickByName(name)
	if err != nil {
		return 0, err
	}
	b.Restart()
	peers := c.state.Load().shards[b.Shard()]
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
