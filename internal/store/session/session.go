// Package session implements the dedicated session-state stores of the
// paper's crash-only architecture.
//
// eBid keeps session state (selected items, userID, workflow state) out of
// the application components, so that microreboots cannot lose or corrupt
// it. Two stores are provided, mirroring the prototype:
//
//   - FastS: an in-process repository (the paper built it inside JBoss's
//     embedded web server). Isolated behind compiler-enforced barriers, it
//     is fast, survives microreboots, but is lost on a process restart.
//     Internally it is striped — one lock per stripe — so concurrent
//     readers on different sessions never contend on a single mutex.
//   - SSMCluster (cluster.go): the clustered session-state store on
//     separate machines (Ling et al., NSDI'04) — S consistent-hash shards
//     × N replica Bricks with write-W-of-N and read-from-any-live-replica
//     quorum. Slower (marshalling + network), but survives µRBs, process
//     restarts and brick (node) crashes; entries are leased and
//     checksummed, so corrupted objects are discarded automatically and
//     orphaned state is garbage-collected when its lease expires. One
//     shard × one replica with W = 1 is the single-node SSM.
//
// Both implement the Store interface so the application is oblivious to
// which one backs it — the property that makes recovery decoupling work.
package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Session is an HttpSession analog: the unit of atomic read/write.
type Session struct {
	ID      string
	UserID  int64
	Data    map[string]string
	Items   []int64 // items selected for bid/buy/sell
	Created time.Duration
}

// Clone returns a deep copy, so callers can never alias store internals.
func (s *Session) Clone() *Session {
	if s == nil {
		return nil
	}
	c := &Session{ID: s.ID, UserID: s.UserID, Created: s.Created}
	if s.Data != nil {
		c.Data = make(map[string]string, len(s.Data))
		for k, v := range s.Data {
			c.Data[k] = v
		}
	}
	if s.Items != nil {
		c.Items = append([]int64(nil), s.Items...)
	}
	return c
}

// Errors returned by session stores.
var (
	ErrNotFound  = errors.New("session: not found")
	ErrCorrupted = errors.New("session: object failed checksum and was discarded")
	ErrDown      = errors.New("session: store unavailable")
)

// Store is the high-level API behind which session state is safeguarded.
// Reads and writes are atomic at Session granularity.
type Store interface {
	// Read returns a copy of the session or ErrNotFound.
	Read(id string) (*Session, error)
	// Write stores a copy of the session atomically.
	Write(s *Session) error
	// Delete removes the session; deleting a missing session is a no-op.
	Delete(id string) error
	// Len reports how many sessions are stored.
	Len() int
	// SurvivesProcessRestart distinguishes FastS (false) from SSMCluster
	// (true).
	SurvivesProcessRestart() bool
	// Name identifies the store in experiment output ("FastS" or
	// "SSMCluster").
	Name() string
}

// ReadPenalized is implemented by stores whose reads can carry a modeled
// extra latency (the SSM brick cluster's fail-stutter replicas). Service
// -time models ask it how much a session access of id costs beyond the
// flat store-access charge.
type ReadPenalized interface {
	ReadPenalty(id string) time.Duration
}

// fastStripes is FastS's lock stripe count. Sixteen stripes keep lock
// contention negligible for the worker counts the node model uses while
// costing only a few hundred bytes of overhead.
const fastStripes = 16

// fastStripe is one lock-protected shard of FastS.
type fastStripe struct {
	mu       sync.RWMutex
	sessions map[string]*Session
}

// FastS is the in-process store, striped so concurrent readers of
// different sessions do not serialize on one lock. The zero value is not
// usable; use NewFastS.
type FastS struct {
	stripes [fastStripes]*fastStripe
}

// NewFastS returns an empty in-process session store.
func NewFastS() *FastS {
	f := &FastS{}
	for i := range f.stripes {
		f.stripes[i] = &fastStripe{sessions: map[string]*Session{}}
	}
	return f
}

// stripe maps a session id onto its lock stripe. Inline FNV-1a: hashing
// must not allocate (a []byte conversion would), since it runs on every
// store operation.
func (f *FastS) stripe(id string) *fastStripe {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return f.stripes[h%fastStripes]
}

// Name implements Store.
func (f *FastS) Name() string { return "FastS" }

// SurvivesProcessRestart implements Store: FastS lives inside the process.
func (f *FastS) SurvivesProcessRestart() bool { return false }

// Read implements Store.
func (f *FastS) Read(id string) (*Session, error) {
	st := f.stripe(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, ok := st.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.Clone(), nil
}

// Write implements Store.
func (f *FastS) Write(s *Session) error {
	if s == nil || s.ID == "" {
		return errors.New("session: Write requires a session with an ID")
	}
	st := f.stripe(s.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sessions[s.ID] = s.Clone()
	return nil
}

// Delete implements Store.
func (f *FastS) Delete(id string) error {
	st := f.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.sessions, id)
	return nil
}

// Len implements Store.
func (f *FastS) Len() int {
	n := 0
	for _, st := range f.stripes {
		st.mu.RLock()
		n += len(st.sessions)
		st.mu.RUnlock()
	}
	return n
}

// LoseAll simulates the process restart that destroys FastS contents —
// the cause of the post-recovery failures in Figure 1's process-restart
// run. It returns how many sessions were lost.
func (f *FastS) LoseAll() int {
	n := 0
	for _, st := range f.stripes {
		st.mu.Lock()
		n += len(st.sessions)
		st.sessions = map[string]*Session{}
		st.mu.Unlock()
	}
	return n
}

// Corrupt overwrites fields of a stored session in place, bypassing the
// atomic API — the "corrupt data inside FastS" faults of Table 2. mode is
// one of "null", "invalid", "wrong". It returns an error if the session
// does not exist.
func (f *FastS) Corrupt(id, mode string) error {
	st := f.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch mode {
	case "null":
		s.Data = nil
		s.UserID = 0
	case "invalid":
		s.UserID = -1 // no valid user has a negative ID
	case "wrong":
		s.UserID++ // valid-looking but belongs to someone else
	default:
		return fmt.Errorf("session: unknown corruption mode %q", mode)
	}
	return nil
}

// IDs returns the stored session ids in sorted order (test/diagnostic aid).
func (f *FastS) IDs() []string {
	var ids []string
	for _, st := range f.stripes {
		st.mu.RLock()
		for id := range st.sessions {
			ids = append(ids, id)
		}
		st.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// DefaultLeaseTTL is the session lease used when none is specified; the
// paper's session model discards state at logout or session timeout.
const DefaultLeaseTTL = 30 * time.Minute

var _ Store = (*FastS)(nil)
