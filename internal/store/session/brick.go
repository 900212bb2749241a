package session

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// BrickRestartTime is the modeled time to reboot a brick process and
// stream its shard back from the surviving replicas (Ling et al. report
// single-digit seconds for brick recovery; re-replication dominates).
const BrickRestartTime = 2 * time.Second

// ssmEntry is a marshalled session plus its integrity and lease metadata.
type ssmEntry struct {
	blob     []byte
	checksum uint32
	expires  time.Duration
	// version orders writes and deletes cluster-wide (SSMCluster stamps
	// it from a monotonic counter). A replica never lets an older version
	// overwrite a newer one, so a stale read-repair cannot undo a
	// concurrent write.
	version uint64
}

// tombstone remembers a deleted session's version so a stale replica
// copy (an old read-repair or re-replication snapshot) cannot resurrect
// it. Tombstones expire with the lease TTL and are reaped with it.
type tombstone struct {
	version uint64
	expires time.Duration
}

// Brick owns one replica of one shard: its own lock, lease clock,
// checksummed entries, and a crash/restart lifecycle. Bricks are
// themselves microrebootable — a crash discards the replica's RAM state,
// and a restart brings the brick back empty, ready for the cluster to
// re-replicate the shard into it.
type Brick struct {
	name  string
	shard int

	mu      sync.Mutex
	entries map[string]ssmEntry
	tombs   map[string]tombstone
	down    bool
	slow    bool
	// discarded counts checksum failures auto-discarded on read.
	discarded int
	// restarts counts completed crash/restart cycles.
	restarts int
}

func newBrick(shard, replica int) *Brick {
	return &Brick{
		name:    fmt.Sprintf("ssm/s%d-r%d", shard, replica),
		shard:   shard,
		entries: map[string]ssmEntry{},
		tombs:   map[string]tombstone{},
	}
}

// Name identifies the brick ("ssm/s<shard>-r<replica>").
func (b *Brick) Name() string { return b.name }

// Shard returns the shard this brick replicates.
func (b *Brick) Shard() int { return b.shard }

// Up reports whether the brick is live.
func (b *Brick) Up() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.down
}

// Slow reports whether the brick is marked degraded.
func (b *Brick) Slow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.slow
}

// SetSlow marks the brick degraded; the cluster routes reads away from
// slow replicas while any healthy replica is available.
func (b *Brick) SetSlow(slow bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.slow = slow
}

// Len reports how many entries the brick holds (0 while down).
func (b *Brick) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Discarded reports how many corrupted entries this brick self-discarded.
func (b *Brick) Discarded() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.discarded
}

// Restarts reports completed crash/restart cycles.
func (b *Brick) Restarts() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.restarts
}

// Crash kills the brick: its RAM-resident replica is lost and every
// operation fails with ErrDown until Restart. It returns how many entries
// were lost. Crashing a crashed brick is a no-op.
func (b *Brick) Crash() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return 0
	}
	n := len(b.entries)
	b.entries = map[string]ssmEntry{}
	b.tombs = map[string]tombstone{}
	b.down = true
	return n
}

// Restart brings a crashed brick back up, empty and healthy. The cluster
// re-replicates the shard into it (see SSMCluster.RestartBrick).
func (b *Brick) Restart() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.down {
		return
	}
	b.down = false
	b.slow = false
	b.entries = map[string]ssmEntry{}
	b.tombs = map[string]tombstone{}
	b.restarts++
}

// put stores one checksummed entry. Version ordering is enforced here: a
// put older than the replica's current copy (or than a deletion
// tombstone) is dropped, and an equal-version put keeps whichever lease
// expires later — renewal extends expires without bumping the version,
// so a re-replication or repair copy carrying the un-renewed expiry must
// not shorten an active session's lease. The drop still acks — the replica
// holds state at least as new as the put.
func (b *Brick) put(id string, e ssmEntry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return ErrDown
	}
	if t, ok := b.tombs[id]; ok && e.version <= t.version {
		return nil
	}
	if cur, ok := b.entries[id]; ok {
		if cur.version > e.version {
			return nil
		}
		if cur.version == e.version && cur.expires >= e.expires {
			return nil
		}
	}
	b.entries[id] = e
	return nil
}

// renew extends the lease of an existing entry without touching its
// blob; renewing a missing (or deleted) entry is a no-op, so lease
// renewal can never resurrect or overwrite anything. It reports whether
// a lease was actually extended (the cluster's write-amplification
// accounting counts these).
func (b *Brick) renew(id string, expires time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return false
	}
	if e, ok := b.entries[id]; ok && expires > e.expires {
		e.expires = expires
		b.entries[id] = e
		return true
	}
	return false
}

// get returns the entry for id, verifying its checksum and lease. A
// checksum mismatch discards the entry locally and returns ErrCorrupted;
// an expired lease deletes it and reports ErrNotFound.
func (b *Brick) get(id string, now time.Duration) (ssmEntry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return ssmEntry{}, ErrDown
	}
	e, ok := b.entries[id]
	if !ok {
		return ssmEntry{}, ErrNotFound
	}
	if e.expires < now {
		delete(b.entries, id)
		return ssmEntry{}, ErrNotFound
	}
	if crc32.ChecksumIEEE(e.blob) != e.checksum {
		delete(b.entries, id)
		b.discarded++
		return ssmEntry{}, ErrCorrupted
	}
	return e, nil
}

// del removes the entry (unless a newer write already superseded the
// delete) and leaves a tombstone so stale replica data cannot bring the
// session back. tombExpires bounds how long the tombstone is kept.
func (b *Brick) del(id string, version uint64, tombExpires time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return ErrDown
	}
	if e, ok := b.entries[id]; !ok || e.version <= version {
		delete(b.entries, id)
	}
	if t, ok := b.tombs[id]; !ok || version > t.version {
		b.tombs[id] = tombstone{version: version, expires: tombExpires}
	}
	return nil
}

// reap removes entries (and tombstones) whose leases lapsed and returns
// the reaped entry ids.
func (b *Brick) reap(now time.Duration) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return nil
	}
	var ids []string
	for id, e := range b.entries {
		if e.expires < now {
			delete(b.entries, id)
			ids = append(ids, id)
		}
	}
	for id, t := range b.tombs {
		if t.expires < now {
			delete(b.tombs, id)
		}
	}
	return ids
}

// ids lists the brick's live entry ids (unsorted).
func (b *Brick) ids() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.entries))
	for id := range b.entries {
		out = append(out, id)
	}
	return out
}

// snapshot copies the brick's entries and tombstones (for re-replication
// into a peer): tombstones must travel with the data or a restarted
// brick could resurrect a session deleted while it was down.
func (b *Brick) snapshot() (map[string]ssmEntry, map[string]tombstone) {
	b.mu.Lock()
	defer b.mu.Unlock()
	entries := make(map[string]ssmEntry, len(b.entries))
	for id, e := range b.entries {
		entries[id] = e
	}
	tombs := make(map[string]tombstone, len(b.tombs))
	for id, t := range b.tombs {
		tombs[id] = t
	}
	return entries, tombs
}

// adoptTombs installs tombstones (newest version wins) during
// re-replication, before any entries are merged in.
func (b *Brick) adoptTombs(tombs map[string]tombstone) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return
	}
	for id, t := range tombs {
		if cur, ok := b.tombs[id]; !ok || t.version > cur.version {
			b.tombs[id] = t
		}
	}
}

// corruptBits flips a bit in the stored blob, leaving the checksum stale
// so the next get detects it. Reports whether the brick held the id.
func (b *Brick) corruptBits(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[id]
	if !ok || b.down || len(e.blob) == 0 {
		return false
	}
	blob := append([]byte(nil), e.blob...)
	blob[len(blob)/2] ^= 0x10
	e.blob = blob
	b.entries[id] = e
	return true
}
