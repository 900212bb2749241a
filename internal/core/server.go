package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store/db"
)

// Scope identifies how much of the system a reboot covers; the recursive
// recovery policy walks these levels from cheapest to most disruptive.
type Scope int

// Reboot scopes, in ascending order of disruption.
const (
	ScopeComponent Scope = iota // one recovery group of EJBs
	ScopeWAR                    // the web tier component
	ScopeApp                    // the entire application
	ScopeProcess                // the JVM/JBoss process
	ScopeNode                   // operating-system reboot
)

func (s Scope) String() string {
	switch s {
	case ScopeComponent:
		return "EJB"
	case ScopeWAR:
		return "WAR"
	case ScopeApp:
		return "application"
	case ScopeProcess:
		return "process"
	case ScopeNode:
		return "node"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// CostModel supplies the modeled duration of reboot phases. The eBid
// implementation encodes Table 3 of the paper; tests use synthetic models.
type CostModel interface {
	// CrashTime is how long forcibly shutting the target down takes.
	CrashTime(component string) time.Duration
	// ReinitTime is how long redeploying and reinitializing takes.
	ReinitTime(component string) time.Duration
	// ScopeTime returns (crash, reinit) for whole-WAR, whole-app,
	// process and node reboots, which are NOT the sum of their parts
	// (restarting the app is optimized to avoid restarting each EJB).
	ScopeTime(s Scope) (crash, reinit time.Duration)
}

// uniformCost is the fallback cost model: paper-magnitude constants.
type uniformCost struct{}

func (uniformCost) CrashTime(string) time.Duration  { return 10 * time.Millisecond }
func (uniformCost) ReinitTime(string) time.Duration { return 490 * time.Millisecond }
func (uniformCost) ScopeTime(s Scope) (time.Duration, time.Duration) {
	switch s {
	case ScopeWAR:
		return 71 * time.Millisecond, 957 * time.Millisecond
	case ScopeApp:
		return 33 * time.Millisecond, 7666 * time.Millisecond
	case ScopeProcess:
		return 0, 19083 * time.Millisecond
	case ScopeNode:
		return 2 * time.Second, 58 * time.Second
	default:
		return 10 * time.Millisecond, 490 * time.Millisecond
	}
}

// Reboot describes one in-progress or completed (micro)reboot: the group
// of components taken down, the modeled durations of the two phases, and
// what the crash released.
type Reboot struct {
	Scope   Scope
	Members []string
	// Crash and Reinit are the modeled durations of the two phases;
	// Duration() is their sum (the Table 3 "µRB time").
	Crash  time.Duration
	Reinit time.Duration
	// FreedBytes is the leaked memory released by the crash phase.
	FreedBytes int64
	// KilledCalls are the in-flight requests (root calls) whose
	// shepherds were killed, deduplicated across hops and members: one
	// entry per killed end-user request.
	KilledCalls []*Call
	// AbortedTxs is how many open transactions were rolled back.
	AbortedTxs int

	completed bool
}

// Duration returns the total modeled recovery time.
func (r *Reboot) Duration() time.Duration { return r.Crash + r.Reinit }

// RebootObserver is notified after a reboot completes. The fault injector
// subscribes to clear faults cured by the covering scope; metrics
// subscribe to count recovery events.
type RebootObserver func(r *Reboot)

// Handler is the tail of an interceptor chain: it receives a call (and
// its shepherd context) and produces the invocation result.
type Handler func(ctx context.Context, call *Call) (any, error)

// Interceptor wraps invocation handling. Interceptors registered with
// Server.Use run on every hop — the initial web-tier dispatch and every
// inter-component call — in registration order (the first registered is
// outermost). An interceptor may short-circuit by not calling next, and
// observes the outcome by calling it. Metrics accounting, fault
// injection, and call-path diagnosis all plug in here rather than inside
// containers.
type Interceptor func(ctx context.Context, call *Call, next Handler) (any, error)

// Server is the application server: it deploys applications, owns the
// naming registry and containers, runs the invocation pipeline, and
// implements the microreboot method. A Server models one
// application-server process (one node of the paper's cluster runs one
// Server).
type Server struct {
	mu         sync.Mutex
	registry   *Registry
	containers map[string]*Container
	apps       map[string][]string // app name → component names
	groups     map[string][]string // component → its recovery group (sorted)
	resources  map[string]any
	now        func() time.Duration
	costs      CostModel
	observers  []RebootObserver

	// interceptors is the user-registered middleware; chain caches the
	// composed pipeline (invalidated by Use, rebuilt lock-free on the
	// invocation hot path).
	interceptors []Interceptor
	chain        atomic.Pointer[Handler]

	// active tracks the in-flight calls currently shepherded through
	// each component, so a µRB can kill them. Maintained by Invoke —
	// the platform, not the container, owns shepherd bookkeeping.
	// Sharded per component (component name → *callSet) so concurrent
	// hops into different components do not contend on one lock.
	active sync.Map

	// hangPark makes Invoke park a call that reports ErrHang until its
	// context is cancelled (kill or lease expiry). Real-time servers
	// enable it; simulation drivers model the parking in virtual time
	// and keep it off.
	hangPark atomic.Bool

	// txs tracks open database transactions per component so a µRB can
	// abort exactly the transactions its components were driving. The
	// value is the transaction id at registration time: Tx objects are
	// pooled, so aborts go through the generation-checked AbortIf.
	txs map[string]map[*db.Tx]uint64

	reboots uint64
}

// Option configures a Server.
type Option func(*Server)

// WithClock sets the time source (virtual time in simulations).
func WithClock(now func() time.Duration) Option {
	return func(s *Server) { s.now = now }
}

// WithCostModel sets the reboot cost model.
func WithCostModel(m CostModel) Option {
	return func(s *Server) { s.costs = m }
}

// WithResource registers an application-wide resource (database handle,
// session store, ...) made available to components through Env.
func WithResource(key string, v any) Option {
	return func(s *Server) { s.resources[key] = v }
}

// NewServer builds an empty application server.
func NewServer(opts ...Option) *Server {
	s := &Server{
		registry:   NewRegistry(),
		containers: map[string]*Container{},
		apps:       map[string][]string{},
		groups:     map[string][]string{},
		resources:  map[string]any{},
		now:        func() time.Duration { return 0 },
		costs:      uniformCost{},
		txs:        map[string]map[*db.Tx]uint64{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Registry exposes the naming service.
func (s *Server) Registry() *Registry { return s.registry }

// Now returns the server's current (virtual) time.
func (s *Server) Now() time.Duration { return s.now() }

// SetHangParking controls what Invoke does with a call that reports
// ErrHang (an injected deadlock or infinite loop). When enabled — the
// right mode for servers driven by real goroutines, e.g. the HTTP front
// end — the call parks on its context and returns only when a microreboot
// kills it or its execution lease expires, faithfully wedging the
// shepherd. When disabled (default), ErrHang is surfaced synchronously so
// discrete-event drivers can model the parking in virtual time.
func (s *Server) SetHangParking(on bool) {
	s.hangPark.Store(on)
}

// OnReboot registers an observer called after each completed reboot.
func (s *Server) OnReboot(o RebootObserver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observers = append(s.observers, o)
}

// Use appends interceptors to the server's invocation pipeline. They run
// on every hop in registration order (first registered is outermost),
// inside the built-in lease check and call-path recording.
func (s *Server) Use(ins ...Interceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interceptors = append(s.interceptors, ins...)
	s.chain.Store(nil) // force rebuild
}

// handler returns the composed invocation pipeline, rebuilding it if the
// interceptor set changed. The cached chain is read lock-free so the
// invocation hot path does not contend on the server mutex.
func (s *Server) handler() Handler {
	if h := s.chain.Load(); h != nil {
		return *h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.chain.Load(); h != nil {
		return *h
	}
	var h Handler = s.dispatch
	all := append([]Interceptor{checkLease, recordPath}, s.interceptors...)
	for i := len(all) - 1; i >= 0; i-- {
		in, next := all[i], h
		h = func(ctx context.Context, call *Call) (any, error) {
			return in(ctx, call, next)
		}
	}
	s.chain.Store(&h)
	return h
}

// checkLease is the built-in outermost interceptor: a request whose
// shepherd is already dead (killed or lease-expired) makes no further
// hops — the execution-lease check of the crash-only design.
func checkLease(ctx context.Context, call *Call, next Handler) (any, error) {
	if ctx.Err() != nil {
		return nil, CancelCause(ctx)
	}
	return next(ctx, call)
}

// recordPath is the built-in call-path interceptor: it records the
// component traversal that failure diagnosis and µRB kill-matching use.
func recordPath(ctx context.Context, call *Call, next Handler) (any, error) {
	call.Via(call.Component)
	return next(ctx, call)
}

// dispatch is the terminal handler: resolve the component through the
// naming service (sentinels and corrupted entries surface here) and hand
// the call to its container.
func (s *Server) dispatch(ctx context.Context, call *Call) (any, error) {
	c, err := s.registry.Lookup(call.Component)
	if err != nil {
		return nil, err
	}
	return c.Serve(ctx, call)
}

// Invoke runs one call against the named component through the
// interceptor pipeline. For the root hop of a request it binds the
// shepherd context: the call's TTL becomes a deadline (cause
// ErrLeaseExpired) and a microreboot kill becomes a cancellation (cause
// ErrKilled). Sub-invocations made by components pass the context their
// Serve received, so cancellation reaches every hop of the request.
func (s *Server) Invoke(ctx context.Context, component string, call *Call) (any, error) {
	if call == nil {
		return nil, errors.New("core: nil call")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	call.Component = component
	ctx, root := call.bindContext(ctx)
	if root != nil {
		defer root.unbind()
	}

	s.trackCall(component, call)
	defer s.untrackCall(component, call)

	res, err := s.handler()(ctx, call)
	if err != nil && errors.Is(err, ErrHang) && s.hangParking() {
		// Context-aware parking: the shepherd stays wedged until a µRB
		// kills it or the execution lease expires.
		<-ctx.Done()
		return nil, CancelCause(ctx)
	}
	return res, err
}

func (s *Server) hangParking() bool { return s.hangPark.Load() }

// callSet is one component's shard of the active-call table: an
// intrusive doubly-linked list threaded through the calls themselves, so
// track/untrack are pointer swaps — no map hashing, no allocation.
type callSet struct {
	mu   sync.Mutex
	head *Call
	n    int
}

func (s *Server) callShard(component string) *callSet {
	if v, ok := s.active.Load(component); ok {
		return v.(*callSet)
	}
	v, _ := s.active.LoadOrStore(component, &callSet{})
	return v.(*callSet)
}

// trackCall registers an in-flight call as shepherded through component.
func (s *Server) trackCall(component string, call *Call) {
	cs := s.callShard(component)
	cs.mu.Lock()
	call.trackNext = cs.head
	if cs.head != nil {
		cs.head.trackPrev = call
	}
	cs.head = call
	cs.n++
	cs.mu.Unlock()
}

func (s *Server) untrackCall(component string, call *Call) {
	cs := s.callShard(component)
	cs.mu.Lock()
	if call.trackPrev != nil {
		call.trackPrev.trackNext = call.trackNext
	} else {
		cs.head = call.trackNext
	}
	if call.trackNext != nil {
		call.trackNext.trackPrev = call.trackPrev
	}
	call.trackPrev, call.trackNext = nil, nil
	cs.n--
	cs.mu.Unlock()
}

// ActiveCalls reports how many calls are currently shepherded through the
// named component.
func (s *Server) ActiveCalls(component string) int {
	cs := s.callShard(component)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.n
}

// killActive kills every call currently shepherded through component and
// returns them. The kill cancels each request's root context, so blocked
// or parked calls observe ctx.Done() immediately. Killing happens under
// the shard lock: untrackCall serializes against it, so once Invoke has
// untracked a call, no kill can reach it anymore — the invariant that
// makes Call.Release's pooling safe.
func (s *Server) killActive(component string) []*Call {
	cs := s.callShard(component)
	cs.mu.Lock()
	victims := make([]*Call, 0, cs.n)
	for call := cs.head; call != nil; call = call.trackNext {
		call.Kill()
		victims = append(victims, call)
	}
	cs.mu.Unlock()
	return victims
}

// Deploy installs an application: it creates one container per component,
// computes recovery groups from the hard references in the deployment
// descriptors, initializes every container, and binds names.
func (s *Server) Deploy(app Application) error {
	s.mu.Lock()
	if _, dup := s.apps[app.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("core: application %s already deployed", app.Name)
	}
	var names []string
	for _, d := range app.Components {
		if d.Factory == nil {
			s.mu.Unlock()
			return fmt.Errorf("core: component %s has no factory", d.Name)
		}
		if _, dup := s.containers[d.Name]; dup {
			s.mu.Unlock()
			return fmt.Errorf("core: component %s already deployed", d.Name)
		}
		names = append(names, d.Name)
	}
	for _, d := range app.Components {
		env := &Env{
			Registry:      s.registry,
			Resources:     s.resources,
			Now:           s.now,
			Server:        s,
			componentName: d.Name,
		}
		s.containers[d.Name] = newContainer(d, env)
	}
	s.apps[app.Name] = names
	s.recomputeGroupsLocked()
	// Estimate per-component recovery for RetryAfter hints.
	for _, n := range names {
		c := s.containers[n]
		c.recoveryEstimate = s.groupDurationLocked(s.groups[n])
	}
	containers := make([]*Container, 0, len(names))
	for _, n := range names {
		containers = append(containers, s.containers[n])
	}
	s.mu.Unlock()

	// Initialize outside the server lock: component Init may call back
	// into the server (e.g. to look up resources).
	for _, c := range containers {
		if err := c.initialize(); err != nil {
			return err
		}
		s.registry.bind(c.Name(), c)
	}
	return nil
}

// recomputeGroupsLocked rebuilds recovery groups: connected components of
// the undirected hard-reference graph. Loose (naming-service) references
// do not join groups — that decoupling is what makes single-EJB µRBs
// possible at all.
func (s *Server) recomputeGroupsLocked() {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	for name := range s.containers {
		find(name)
	}
	for name, c := range s.containers {
		for _, ref := range c.desc.HardRefs {
			if _, ok := s.containers[ref]; ok {
				union(name, ref)
			}
		}
	}
	members := map[string][]string{}
	for name := range s.containers {
		root := find(name)
		members[root] = append(members[root], name)
	}
	s.groups = map[string][]string{}
	for _, group := range members {
		sort.Strings(group)
		for _, name := range group {
			s.groups[name] = group
		}
	}
}

func (s *Server) groupDurationLocked(group []string) time.Duration {
	var total time.Duration
	for _, n := range group {
		d := s.costs.CrashTime(n) + s.costs.ReinitTime(n)
		if d > total {
			total = d // members reboot concurrently; the slowest dominates
		}
	}
	return total
}

// RecoveryGroup returns the recovery group containing the named component:
// the set of components that must microreboot together.
func (s *Server) RecoveryGroup(name string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	return append([]string(nil), g...), nil
}

// Container returns the container for a deployed component.
func (s *Server) Container(name string) (*Container, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	return c, nil
}

// Components returns the names of all deployed components, sorted.
func (s *Server) Components() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.containers))
	for n := range s.containers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AppComponents returns the component names of a deployed application.
func (s *Server) AppComponents(app string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names, ok := s.apps[app]
	if !ok {
		return nil, fmt.Errorf("core: application %s not deployed", app)
	}
	return append([]string(nil), names...), nil
}

// RegisterTx associates an open transaction with the component driving
// it, so a microreboot of that component aborts the transaction (the
// container-managed rollback of the paper).
func (s *Server) RegisterTx(component string, tx *db.Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.txs[component]
	if set == nil {
		set = map[*db.Tx]uint64{}
		s.txs[component] = set
	}
	// Remember the id alongside the pointer: Tx objects are pooled, so a
	// later abort must be generation-checked (db.Tx.AbortIf) to be sure
	// it hits this registration's transaction and not a recycled reuse.
	set[tx] = tx.ID()
}

// ReleaseTx removes a finished transaction from tracking.
func (s *Server) ReleaseTx(component string, tx *db.Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.txs[component], tx)
}

// Reboots reports how many (micro)reboots the server has completed.
func (s *Server) Reboots() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reboots
}

// BindSentinels binds recovery sentinels for the named components
// (expanded to recovery groups) without crashing them, and returns the
// affected members. This implements the Section 6.2 optimization of
// rebinding the name a grace period before the crash, so in-flight
// requests can drain while new arrivals already receive Retry-After.
func (s *Server) BindSentinels(names ...string) ([]string, error) {
	s.mu.Lock()
	memberSet := map[string]bool{}
	for _, n := range names {
		g, ok := s.groups[n]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrNotBound, n)
		}
		for _, m := range g {
			memberSet[m] = true
		}
	}
	var members []string
	for m := range memberSet {
		members = append(members, m)
	}
	sort.Strings(members)
	var estimate time.Duration
	for _, m := range members {
		if d := s.costs.CrashTime(m) + s.costs.ReinitTime(m); d > estimate {
			estimate = d
		}
	}
	s.mu.Unlock()
	for _, m := range members {
		s.registry.bindSentinelFor(m, estimate)
	}
	return members, nil
}

// BeginMicroreboot starts the crash phase of a microreboot of the named
// components (expanded to their recovery groups): sentinels are bound,
// instances destroyed, shepherded calls killed (their root contexts
// cancelled with cause ErrKilled), open transactions aborted, leaked
// resources released, and per-component metadata discarded.
//
// The returned Reboot carries the modeled phase durations. Only
// simulation drivers wait out Duration(), on the virtual clock, before
// calling CompleteMicroreboot; a live server uses Microreboot, whose µRB
// lasts as long as its work.
func (s *Server) BeginMicroreboot(names ...string) (*Reboot, error) {
	return s.beginScoped(ScopeComponent, names...)
}

func (s *Server) beginScoped(scope Scope, names ...string) (*Reboot, error) {
	if len(names) == 0 {
		return nil, errors.New("core: no components named")
	}
	s.mu.Lock()
	memberSet := map[string]bool{}
	for _, n := range names {
		g, ok := s.groups[n]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrNotBound, n)
		}
		for _, m := range g {
			memberSet[m] = true
		}
	}
	members := make([]string, 0, len(memberSet))
	for m := range memberSet {
		members = append(members, m)
	}
	sort.Strings(members)

	rb := &Reboot{Scope: scope, Members: members}
	switch scope {
	case ScopeComponent:
		// Group members recover concurrently; the slowest dominates.
		for _, m := range members {
			if ct := s.costs.CrashTime(m); ct > rb.Crash {
				rb.Crash = ct
			}
			if rt := s.costs.ReinitTime(m); rt > rb.Reinit {
				rb.Reinit = rt
			}
			// WAR components carry their own scope cost.
			if s.containers[m].desc.Kind == Web {
				wc, wr := s.costs.ScopeTime(ScopeWAR)
				if wc > rb.Crash {
					rb.Crash = wc
				}
				if wr > rb.Reinit {
					rb.Reinit = wr
				}
			}
		}
	default:
		rb.Crash, rb.Reinit = s.costs.ScopeTime(scope)
	}

	estimate := rb.Duration()
	containers := make([]*Container, 0, len(members))
	for _, m := range members {
		containers = append(containers, s.containers[m])
	}
	type txVictim struct {
		tx *db.Tx
		id uint64
	}
	var victims []txVictim
	for _, m := range members {
		for tx, id := range s.txs[m] {
			victims = append(victims, txVictim{tx: tx, id: id})
		}
		delete(s.txs, m)
	}
	s.mu.Unlock()

	for _, c := range containers {
		s.registry.bindSentinelFor(c.Name(), estimate)
	}
	for _, c := range containers {
		rb.FreedBytes += c.crash()
	}
	// Kill the shepherds of every call in flight through a member:
	// cancelling the root contexts propagates to children the way one
	// Java thread shepherds the whole request. A request traversing
	// several members is tracked once per hop; report it once.
	killedRoots := map[*Call]struct{}{}
	for _, m := range members {
		for _, call := range s.killActive(m) {
			root := call.Root()
			if _, dup := killedRoots[root]; dup {
				continue
			}
			killedRoots[root] = struct{}{}
			rb.KilledCalls = append(rb.KilledCalls, root)
		}
	}
	// Generation-checked abort: a registered transaction that finished
	// (and was pool-recycled) after collection fails the id check and is
	// skipped, instead of aborting the pointer's new owner.
	for _, v := range victims {
		if v.tx.AbortIf(v.id) == nil {
			rb.AbortedTxs++
		}
	}
	return rb, nil
}

// CompleteMicroreboot runs the reinit phase: containers are
// reinstantiated from their preserved factories, metadata is rebuilt from
// the descriptors, and names are rebound (which also heals any naming
// corruption). Observers fire after completion.
func (s *Server) CompleteMicroreboot(rb *Reboot) error {
	if rb == nil {
		return errors.New("core: nil reboot")
	}
	if rb.completed {
		return errors.New("core: reboot already completed")
	}
	for _, m := range rb.Members {
		c, err := s.Container(m)
		if err != nil {
			return err
		}
		if err := c.initialize(); err != nil {
			return err
		}
		s.registry.bind(m, c)
	}
	rb.completed = true
	s.mu.Lock()
	s.reboots++
	obs := append([]RebootObserver(nil), s.observers...)
	s.mu.Unlock()
	for _, o := range obs {
		o(rb)
	}
	return nil
}

// Microreboot performs a full microreboot synchronously (crash + reinit
// with no pause): on a live server a µRB lasts as long as its work. Only
// simulation drivers, which must model the passage of recovery time, use
// the Begin/Complete pair and wait out Duration() in virtual time.
func (s *Server) Microreboot(names ...string) (*Reboot, error) {
	rb, err := s.BeginMicroreboot(names...)
	if err != nil {
		return nil, err
	}
	return rb, s.CompleteMicroreboot(rb)
}

// BeginScopedReboot starts a WAR-, app-, process- or node-scope reboot
// covering the given application's components (all components for process
// and node scopes).
func (s *Server) BeginScopedReboot(scope Scope, app string) (*Reboot, error) {
	var names []string
	switch scope {
	case ScopeWAR:
		comps, err := s.AppComponents(app)
		if err != nil {
			return nil, err
		}
		for _, n := range comps {
			c, err := s.Container(n)
			if err != nil {
				return nil, err
			}
			if c.Kind() == Web {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("core: application %s has no web component", app)
		}
	case ScopeApp:
		comps, err := s.AppComponents(app)
		if err != nil {
			return nil, err
		}
		names = comps
	case ScopeProcess, ScopeNode:
		names = s.Components()
		if len(names) == 0 {
			return nil, errors.New("core: nothing deployed")
		}
	default:
		return nil, fmt.Errorf("core: BeginScopedReboot does not handle scope %v", scope)
	}
	return s.beginScoped(scope, names...)
}
