// Package core implements the paper's primary contribution: the
// microreboot machinery of a component application server.
//
// The design follows Section 3.2 of the paper. Applications are deployed
// as sets of components (EJB analogs) described by deployment descriptors.
// Each component runs inside a Container that manages an instance pool and
// per-component metadata (the transaction method map). A naming Registry
// (JNDI analog) maps component names to containers; during a microreboot
// the name is bound to a sentinel and lookups return ErrRetryAfter, which
// the web tier translates into HTTP 503 + Retry-After.
//
// Invocations enter through Server.Invoke, which binds a root
// context.Context to the request (the execution lease becomes a context
// deadline; a microreboot kill becomes a context cancellation) and runs an
// Interceptor pipeline before dispatching to the component's container.
// The shepherding thread of the paper is therefore a context tree: one
// cancellation kills the whole request, wherever it currently executes.
// The root Call also carries the request's one response buffer, Body:
// the component that renders the page appends it there, and a pooled
// call keeps the buffer's capacity for the next request. A call that a
// microreboot killed is never pooled again, so no later request writes
// over its bytes.
//
// Microreboot(name) expands the target to its recovery group — the
// transitive closure of hard inter-component references declared in the
// descriptors — then, for each member: destroys all extant instances,
// kills the shepherding calls associated with them (by cancelling their
// root contexts), aborts their open transactions, releases leased
// resources, discards server metadata held on the component's behalf, and
// finally reinstantiates and reinitializes the component. The component's
// Factory (the classloader analog) is the only thing preserved, exactly
// as JBoss preserves the EJB classloader.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies components, mirroring the two EJB flavors used by eBid
// plus the web tier.
type Kind int

// Component kinds.
const (
	// StatelessSession components implement end-user operations; each
	// operation is a stateless session EJB interacting with entities.
	StatelessSession Kind = iota
	// Entity components implement persistent application objects whose
	// instance state maps to database rows (container-managed
	// persistence).
	Entity
	// Web is the presentation tier (the WAR): servlets invoking the
	// session components and formatting results.
	Web
)

func (k Kind) String() string {
	switch k {
	case StatelessSession:
		return "stateless-session"
	case Entity:
		return "entity"
	case Web:
		return "web"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// TxAttr is a transaction attribute in the container's transaction method
// map (a J2EE deployment concept; corrupting this map is one of the
// Table 2 faults).
type TxAttr string

// Transaction attributes.
const (
	TxRequired  TxAttr = "Required"
	TxSupports  TxAttr = "Supports"
	TxNever     TxAttr = "Never"
	txCorrupted TxAttr = "\x00corrupted"
)

// Call is one invocation travelling through the application: the unit the
// shepherding thread of the paper carries from the web tier through the
// EJBs. Components append themselves to Path, which both reproduces the
// "path of calls between servlets and EJBs" that the recovery manager's
// diagnosis uses and lets the server kill the calls shepherded by a
// component being microrebooted.
type Call struct {
	// Op is the end-user operation, e.g. "MakeBid".
	Op string
	// Component is the component this (sub)invocation targets; set by
	// Server.Invoke before the interceptor chain runs.
	Component string
	// SessionID identifies the HTTP session (cookie analog).
	SessionID string
	// Args carries operation arguments: a typed per-application codec
	// (eBid's *OpArgs / *EntityArgs). Core never reads it; it only carries
	// it from the caller to the component.
	Args any
	// TTL is the execution lease: Server.Invoke enforces it as a context
	// deadline on the root invocation, so a stuck call observes
	// cancellation (cause ErrLeaseExpired) when it expires.
	TTL time.Duration
	// Path accumulates the components traversed, in order.
	Path []string
	// parent links a sub-invocation back to the call it was spawned
	// from: one shepherd (context tree) carries a user request through
	// multiple components, so killing any hop kills the whole request.
	parent *Call
	// killed is set when a microreboot destroys the call's shepherd.
	killed atomic.Bool

	// trackPrev/trackNext link the call into its component's active-call
	// list while an Invoke is in flight. They are owned by the server's
	// call tracking (guarded by the component shard's mutex) and give
	// track/untrack O(1) cost with no map hashing.
	trackPrev, trackNext *Call

	// shep is the request's shepherd context, embedded in the pooled
	// call so binding a root context costs no allocation. Only
	// meaningful on the root call of a request.
	shep shepherd

	// Body is the response body buffer of the request, meaningful on the
	// root call: components append the rendered page to the root call's
	// Body and return SlotResult. Like Path, it keeps its capacity when
	// the call is pooled, so rendering into it allocates nothing once it
	// has grown to the page size.
	Body []byte

	// The key-list result slot: a component whose result is a key list
	// writes it here and returns the SlotResult sentinel from Serve
	// instead of boxing the slice through `any`. Every other result flows
	// through `any`, which is what keeps the fault-injection interceptors
	// (which fabricate plain `any` results) working.
	resKeys    []int64
	hasResKeys bool
}

// slotResult is the sentinel type returned (as its package-var instance
// SlotResult) by components that left their result in the call: a page
// in the root call's Body, or a key list in the call's result slot.
type slotResult struct{}

// SlotResult signals "the result is in the call". The sentinel is a
// package variable, so returning it allocates nothing.
var SlotResult any = slotResult{}

// SetKeysResult deposits a key-list result in the call's result slot.
// The slice is retained until read or Release; callers hand over
// ownership.
func (c *Call) SetKeysResult(keys []int64) {
	c.resKeys = keys
	c.hasResKeys = true
}

// KeysResult reads (and clears) the key-list result slot.
func (c *Call) KeysResult() ([]int64, bool) {
	if !c.hasResKeys {
		return nil, false
	}
	k := c.resKeys
	c.resKeys, c.hasResKeys = nil, false
	return k, true
}

// callPool recycles Call objects across requests. A Call holds a mutex
// and an atomic, so it is reset field by field (never copied) before
// being pooled again.
var callPool = sync.Pool{New: func() any { return new(Call) }}

// NewCall returns a root call drawn from the call pool. Callers that own
// the request's lifetime should hand the call back with Release once the
// invocation has returned and the call is no longer referenced.
func NewCall(op, sessionID string, args any, ttl time.Duration) *Call {
	c := callPool.Get().(*Call)
	c.Op = op
	c.SessionID = sessionID
	c.Args = args
	c.TTL = ttl
	return c
}

// Child derives a sub-invocation for an inter-component call: it shares
// the session and TTL, records its traversal into the parent's path, and
// propagates kills to the parent (the shepherding thread is one and the
// same). The child is drawn from the call pool; release it with Release
// after its Invoke returns.
func (c *Call) Child(op string, args any) *Call {
	ch := callPool.Get().(*Call)
	ch.Op = op
	ch.SessionID = c.SessionID
	ch.Args = args
	ch.TTL = c.TTL
	ch.parent = c
	return ch
}

// Release resets the call and returns it to the call pool, reporting
// whether it was recycled. Killed calls are refused: a microreboot
// retains them in Reboot.KilledCalls, so recycling would alias live
// bookkeeping. The server kills calls only while they are tracked (under
// the shard lock Invoke untracks through), so once Invoke has returned,
// the killed flag is stable and Release is safe to call.
func (c *Call) Release() bool {
	if c.killed.Load() {
		return false
	}
	c.shep.mu.Lock()
	bound := c.shep.bound
	c.shep.mu.Unlock()
	if bound {
		return false
	}
	c.Op, c.Component, c.SessionID = "", "", ""
	c.Args = nil
	c.TTL = 0
	c.Path = c.Path[:0] // keep capacity: Via appends stay allocation-free
	c.Body = c.Body[:0] // likewise for the page rendered into it
	c.parent = nil
	c.trackPrev, c.trackNext = nil, nil
	c.resKeys, c.hasResKeys = nil, false
	callPool.Put(c)
	return true
}

// Via records that the call entered the named component; the traversal is
// visible on the root call's Path.
func (c *Call) Via(component string) {
	c.Path = append(c.Path, component)
	if c.parent != nil {
		c.parent.Via(component)
	}
}

// Killed reports whether a microreboot killed this call's shepherd.
func (c *Call) Killed() bool { return c.killed.Load() }

// Kill marks the call — and the request it belongs to — as killed, and
// cancels the request's root context (cause ErrKilled) so a blocked
// component observes ctx.Done() immediately.
func (c *Call) Kill() {
	for p := c; p != nil; p = p.parent {
		p.killed.Store(true)
	}
	c.Root().shep.kill()
}

// Root returns the top-level call of the request.
func (c *Call) Root() *Call {
	r := c
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// bindContext attaches an invocation context to the request's root call:
// the execution lease (TTL) becomes a deadline and Kill becomes a
// cancellation. It is a no-op for sub-invocations of an already-bound
// request (they inherit the caller's derived context). The returned
// shepherd (nil when already bound) must be unbound when the root
// invocation finishes.
func (c *Call) bindContext(parent context.Context) (context.Context, *shepherd) {
	r := c.Root()
	s := &r.shep
	s.mu.Lock()
	if s.bound {
		s.mu.Unlock()
		return parent, nil
	}
	s.bound = true
	s.parent = parent
	s.deadline = time.Time{}
	s.done = nil
	s.err, s.cause = nil, nil
	if r.TTL > 0 {
		s.deadline = time.Now().Add(r.TTL)
		if pd, ok := parent.Deadline(); ok && pd.Before(s.deadline) {
			s.deadline = pd
		}
	}
	if r.killed.Load() {
		s.cancelLocked(context.Canceled, ErrKilled)
	}
	s.mu.Unlock()
	return s, s
}

// shepherd is the root invocation context, embedded in the pooled Call so
// binding a context per request allocates nothing. Cancellation state is
// evaluated lazily: Err checks the lease deadline and the parent on
// demand, and the done channel, lease timer, and parent watcher only
// materialize when something actually blocks on Done — the common
// non-blocking request never pays for any of them.
//
// The context is valid only for the duration of its request: once the
// root Invoke returns, the call (and this context with it) may be
// recycled for a different request. Code must not retain it past Serve —
// the same contract net/http puts on request contexts.
type shepherd struct {
	mu       sync.Mutex
	bound    bool
	parent   context.Context
	deadline time.Time     // lease expiry; zero when the call has no TTL
	done     chan struct{} // lazily created by Done
	timer    *time.Timer   // lease timer, armed alongside done
	err      error         // Canceled/DeadlineExceeded once cancelled
	cause    error         // ErrKilled, ErrLeaseExpired, or the parent's cause
}

// closedchan is the reusable pre-closed Done channel for contexts that
// were cancelled before anything blocked on them.
var closedchan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// shepherdKey is the Value key under which a shepherd exposes itself, so
// CancelCause can find the invocation cause through WithValue wrappers
// and library-derived child contexts.
type shepherdKey struct{}

// Deadline implements context.Context.
func (s *shepherd) Deadline() (time.Time, bool) {
	s.mu.Lock()
	d, parent := s.deadline, s.parent
	s.mu.Unlock()
	if !d.IsZero() {
		return d, true
	}
	if parent != nil {
		return parent.Deadline()
	}
	return time.Time{}, false
}

// Done implements context.Context. The first call arms the heavyweight
// machinery: the lease timer and, when the parent is cancellable, a
// watcher goroutine propagating its cancellation.
func (s *shepherd) Done() <-chan struct{} {
	s.mu.Lock()
	if s.done == nil {
		if s.errLocked() != nil {
			s.mu.Unlock()
			return closedchan
		}
		done := make(chan struct{})
		s.done = done
		if !s.deadline.IsZero() {
			s.timer = time.AfterFunc(time.Until(s.deadline), func() {
				s.cancelFor(done, context.DeadlineExceeded, ErrLeaseExpired)
			})
		}
		if parent := s.parent; parent != nil && parent.Done() != nil {
			go func() {
				select {
				case <-parent.Done():
					s.cancelFor(done, parent.Err(), context.Cause(parent))
				case <-done:
				}
			}()
		}
	}
	d := s.done
	s.mu.Unlock()
	return d
}

// Err implements context.Context, lazily observing lease expiry and
// parent cancellation — no timer needs to have fired for a hop-boundary
// lease check to see an expired lease.
func (s *shepherd) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errLocked()
}

func (s *shepherd) errLocked() error {
	if s.err != nil {
		return s.err
	}
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		s.cancelLocked(context.DeadlineExceeded, ErrLeaseExpired)
		return s.err
	}
	if s.parent != nil {
		if perr := s.parent.Err(); perr != nil {
			s.cancelLocked(perr, context.Cause(s.parent))
			return s.err
		}
	}
	return nil
}

// Value implements context.Context.
func (s *shepherd) Value(key any) any {
	if _, ok := key.(shepherdKey); ok {
		return s
	}
	s.mu.Lock()
	parent := s.parent
	s.mu.Unlock()
	if parent != nil {
		return parent.Value(key)
	}
	return nil
}

// causeErr returns the invocation-level cancellation cause, nil while
// the context is live.
func (s *shepherd) causeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.errLocked() == nil {
		return nil
	}
	return s.cause
}

// kill cancels a bound shepherd with cause ErrKilled; on an unbound call
// the killed flag alone carries the verdict until bindContext runs.
func (s *shepherd) kill() {
	s.mu.Lock()
	if s.bound {
		s.cancelLocked(context.Canceled, ErrKilled)
	}
	s.mu.Unlock()
}

func (s *shepherd) cancelLocked(err, cause error) {
	if s.err != nil {
		return
	}
	s.err, s.cause = err, cause
	if s.done != nil {
		close(s.done)
	}
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

// cancelFor cancels only if done is still the current request's channel:
// the lease timer and parent watcher capture the channel they were armed
// for, so a callback outliving its request can never cancel the next
// request bound to the recycled call.
func (s *shepherd) cancelFor(done chan struct{}, err, cause error) {
	s.mu.Lock()
	if s.done == done {
		s.cancelLocked(err, cause)
	}
	s.mu.Unlock()
}

// unbind ends the request: the context is cancelled (unblocking any
// straggling watcher) and stays cancelled while unbound, so retained
// references observe a dead context rather than a reset one. bindContext
// re-arms the state for the next request.
func (s *shepherd) unbind() {
	s.mu.Lock()
	s.cancelLocked(context.Canceled, context.Canceled)
	s.bound = false
	s.parent = nil
	s.mu.Unlock()
}

// Component is the unit of microrebootability. Implementations must be
// cheap to construct and initialize — the paper's first design goal is
// components that are as small as possible in program logic and startup
// time.
type Component interface {
	// Init prepares a fresh instance. It runs at deployment and again
	// after every microreboot; it must be idempotent with respect to
	// external state.
	Init(env *Env) error
	// Serve handles one operation dispatched to this component. The
	// context is the request's shepherd: it is cancelled when a
	// microreboot kills the call (cause ErrKilled) or the execution
	// lease expires (cause ErrLeaseExpired). Components that block must
	// select on ctx.Done().
	Serve(ctx context.Context, call *Call) (any, error)
	// Stop releases instance resources. It is called on graceful
	// undeployment but NOT on a microreboot crash — µRBs forcefully
	// destroy instances without relying on their cooperation.
	Stop() error
}

// Factory creates component instances. It is the classloader analog:
// preserved across microreboots, so state captured in its closure plays
// the role of Java static variables (which J2EE discourages mutating, and
// which a µRB deliberately does not reset).
type Factory func() Component

// Descriptor is the deployment descriptor for one component.
type Descriptor struct {
	Name string
	Kind Kind
	// Refs are loose references resolved through the naming service;
	// they define the call paths used by failure diagnosis but do NOT
	// force components into a common recovery group.
	Refs []string
	// HardRefs are container-spanning metadata relationships (e.g. CMP
	// relationships between entities). The transitive closure of
	// HardRefs defines the recovery group that must microreboot
	// together.
	HardRefs []string
	// Factory builds instances. Required.
	Factory Factory
	// TxMethods is the transaction method map installed into the
	// container at (re)initialization.
	TxMethods map[string]TxAttr
	// PoolSize is the instance pool size; zero means DefaultPoolSize.
	PoolSize int
}

// DefaultPoolSize is the container instance pool size when a descriptor
// does not specify one.
const DefaultPoolSize = 4

// Application is a deployable set of components.
type Application struct {
	Name       string
	Components []Descriptor
}

// Env is the server-provided environment handed to component instances at
// Init. It deliberately exposes only high-level facilities: the paper
// argues components must obtain resources exclusively through their
// platform, or microreboots leak them.
type Env struct {
	// Registry resolves inter-component references.
	Registry *Registry
	// Resources carries application-wide facilities (database handle,
	// session store, ...) registered at deployment. Keys are
	// well-known strings owned by the application.
	Resources map[string]any
	// Now supplies virtual (or real) time.
	Now func() time.Duration
	// Server lets components reach platform services: inter-component
	// calls go through Server.Invoke so the interceptor pipeline and
	// shepherd tracking see every hop.
	Server *Server
	// componentName is the name of the component this Env was built for.
	componentName string
}

// Resource fetches a typed resource from the environment.
func Resource[T any](e *Env, key string) (T, bool) {
	var zero T
	v, ok := e.Resources[key].(T)
	if !ok {
		return zero, false
	}
	return v, true
}

// ComponentName returns the name of the component the Env belongs to.
func (e *Env) ComponentName() string { return e.componentName }

// Errors returned by the core machinery.
var (
	// ErrRetryAfter is returned when a call reaches a component that is
	// currently microrebooting; see RetryAfterError.
	ErrRetryAfter = errors.New("core: component is recovering, retry after")
	// ErrNotBound is returned when a name has no binding.
	ErrNotBound = errors.New("core: name not bound")
	// ErrHang marks a call that would block forever (deadlock or
	// infinite loop); the hosting node parks it until killed or TTL.
	ErrHang = errors.New("core: call hung")
	// ErrComponentFault is the generic failure surfaced to callers when
	// a component malfunctions.
	ErrComponentFault = errors.New("core: component fault")
	// ErrStopped is returned by calls into an undeployed component.
	ErrStopped = errors.New("core: component stopped")
	// ErrKilled is the cancellation cause delivered to a call whose
	// shepherd was destroyed by a microreboot.
	ErrKilled = errors.New("core: call killed by microreboot")
	// ErrLeaseExpired is the cancellation cause delivered to a call
	// whose execution lease (TTL) ran out.
	ErrLeaseExpired = errors.New("core: execution lease expired")
)

// CancelCause extracts the invocation-level failure behind a context
// cancellation: ErrKilled, ErrLeaseExpired, or the raw context error when
// the cancellation came from outside the server (e.g. an HTTP client
// disconnect). The shepherd context is not a context-package cancelCtx,
// so context.Cause alone cannot see its cause; look it up through the
// Value chain first (which also works for contexts derived from the
// shepherd), then fall back to the standard machinery.
func CancelCause(ctx context.Context) error {
	if s, ok := ctx.Value(shepherdKey{}).(*shepherd); ok {
		if cause := s.causeErr(); cause != nil {
			return cause
		}
	}
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}

// RetryAfterError tells the caller when to retry; the web tier maps it to
// HTTP 503 with a Retry-After header (Section 6.2 of the paper).
type RetryAfterError struct {
	// Component is the recovering component.
	Component string
	// After is the estimated remaining recovery time.
	After time.Duration
}

// Error implements error.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("core: %s is recovering, retry after %v", e.Component, e.After)
}

// Unwrap makes errors.Is(err, ErrRetryAfter) work.
func (e *RetryAfterError) Unwrap() error { return ErrRetryAfter }
