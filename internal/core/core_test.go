package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/store/db"
)

// echoComponent is a trivial component for framework tests.
type echoComponent struct {
	name    string
	inited  int
	stopped int
}

func (e *echoComponent) Init(env *Env) error { e.inited++; return nil }
func (e *echoComponent) Serve(ctx context.Context, call *Call) (any, error) {
	return fmt.Sprintf("%s:%s", e.name, call.Op), nil
}
func (e *echoComponent) Stop() error { e.stopped++; return nil }

func echoDesc(name string, kind Kind, hardRefs ...string) Descriptor {
	return Descriptor{
		Name:     name,
		Kind:     kind,
		HardRefs: hardRefs,
		Factory:  func() Component { return &echoComponent{name: name} },
		TxMethods: map[string]TxAttr{
			"write": TxRequired,
			"read":  TxSupports,
		},
	}
}

func deployEcho(t *testing.T, names ...string) *Server {
	t.Helper()
	s := NewServer()
	app := Application{Name: "test"}
	for _, n := range names {
		app.Components = append(app.Components, echoDesc(n, StatelessSession))
	}
	if err := s.Deploy(app); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return s
}

func bg() context.Context { return context.Background() }

func TestDeployAndServe(t *testing.T) {
	s := deployEcho(t, "A", "B")
	res, err := s.Invoke(bg(), "A", &Call{Op: "read"})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res != "A:read" {
		t.Fatalf("res = %v, want A:read", res)
	}
	if got := s.Components(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Components = %v", got)
	}
}

func TestDeployErrors(t *testing.T) {
	s := deployEcho(t, "A")
	if err := s.Deploy(Application{Name: "test"}); err == nil {
		t.Fatal("duplicate app deploy should fail")
	}
	if err := s.Deploy(Application{Name: "other", Components: []Descriptor{echoDesc("A", StatelessSession)}}); err == nil {
		t.Fatal("duplicate component deploy should fail")
	}
	if err := s.Deploy(Application{Name: "nofac", Components: []Descriptor{{Name: "X"}}}); err == nil {
		t.Fatal("deploy without factory should fail")
	}
}

func TestCallPathRecorded(t *testing.T) {
	s := deployEcho(t, "A")
	call := &Call{Op: "read"}
	if _, err := s.Invoke(bg(), "A", call); err != nil {
		t.Fatal(err)
	}
	if len(call.Path) != 1 || call.Path[0] != "A" {
		t.Fatalf("Path = %v, want [A]", call.Path)
	}
}

func TestMicrorebootLifecycle(t *testing.T) {
	s := deployEcho(t, "A", "B")
	rb, err := s.BeginMicroreboot("A")
	if err != nil {
		t.Fatalf("BeginMicroreboot: %v", err)
	}
	if len(rb.Members) != 1 || rb.Members[0] != "A" {
		t.Fatalf("Members = %v, want [A]", rb.Members)
	}
	if rb.Duration() <= 0 {
		t.Fatal("zero recovery duration")
	}

	// During the µRB, lookups hit the sentinel.
	_, err = s.Registry().Lookup("A")
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("Lookup during µRB err = %v, want RetryAfterError", err)
	}
	if !errors.Is(err, ErrRetryAfter) {
		t.Fatal("RetryAfterError must unwrap to ErrRetryAfter")
	}
	if ra.After <= 0 {
		t.Fatal("RetryAfter hint must be positive")
	}

	// B is unaffected.
	if _, err := s.Invoke(bg(), "B", &Call{Op: "read"}); err != nil {
		t.Fatalf("B invoke during A µRB: %v", err)
	}

	if err := s.CompleteMicroreboot(rb); err != nil {
		t.Fatalf("CompleteMicroreboot: %v", err)
	}
	if _, err := s.Invoke(bg(), "A", &Call{Op: "read"}); err != nil {
		t.Fatalf("Invoke after µRB: %v", err)
	}
	if err := s.CompleteMicroreboot(rb); err == nil {
		t.Fatal("double complete should fail")
	}
	if s.Reboots() != 1 {
		t.Fatalf("Reboots = %d, want 1", s.Reboots())
	}
}

// blockingComponent blocks its Serve until released or its context is
// cancelled, reporting what it observed.
type blockingComponent struct {
	started chan struct{}
	release chan struct{}
}

func (b blockingComponent) Init(*Env) error { return nil }
func (b blockingComponent) Serve(ctx context.Context, call *Call) (any, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		return "released", nil
	case <-ctx.Done():
		return nil, CancelCause(ctx)
	}
}
func (b blockingComponent) Stop() error { return nil }

func deployBlocking(t *testing.T) (*Server, blockingComponent) {
	t.Helper()
	bc := blockingComponent{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := NewServer()
	if err := s.Deploy(Application{Name: "t", Components: []Descriptor{{
		Name: "Block", Factory: func() Component { return bc },
	}}}); err != nil {
		t.Fatal(err)
	}
	return s, bc
}

// The acceptance test for the context redesign: a component blocked
// mid-Serve observes ctx.Done() the moment a microreboot kills its
// shepherd, with cause ErrKilled.
func TestMicrorebootCancelsBlockedCallContext(t *testing.T) {
	s, bc := deployBlocking(t)
	call := &Call{Op: "read"}
	done := make(chan error, 1)
	go func() {
		_, err := s.Invoke(bg(), "Block", call)
		done <- err
	}()
	<-bc.started // wait until the component is inside Serve

	rb, err := s.BeginMicroreboot("Block")
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.KilledCalls) != 1 || rb.KilledCalls[0] != call {
		t.Fatalf("KilledCalls = %v, want the in-flight call", rb.KilledCalls)
	}
	if !call.Killed() {
		t.Fatal("call not marked killed")
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("blocked invoke err = %v, want ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked call did not observe context cancellation")
	}
	if err := s.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
}

// TTL enforcement is structural: the execution lease becomes a context
// deadline, so a stuck call unblocks with cause ErrLeaseExpired.
func TestLeaseExpiryCancelsBlockedCall(t *testing.T) {
	s, bc := deployBlocking(t)
	call := &Call{Op: "read", TTL: 30 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := s.Invoke(bg(), "Block", call)
		done <- err
	}()
	<-bc.started
	select {
	case err := <-done:
		if !errors.Is(err, ErrLeaseExpired) {
			t.Fatalf("err = %v, want ErrLeaseExpired", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease expiry did not cancel the call")
	}
}

func TestHangParkingWaitsForKill(t *testing.T) {
	s := deployEcho(t, "A")
	s.SetHangParking(true)
	s.Use(func(ctx context.Context, call *Call, next Handler) (any, error) {
		if call.Op == "wedge" {
			return nil, ErrHang
		}
		return next(ctx, call)
	})
	call := &Call{Op: "wedge"}
	done := make(chan error, 1)
	go func() {
		_, err := s.Invoke(bg(), "A", call)
		done <- err
	}()
	// The call must be parked, not returned.
	select {
	case err := <-done:
		t.Fatalf("hung call returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if s.ActiveCalls("A") != 1 {
		t.Fatalf("ActiveCalls = %d, want 1 parked call", s.ActiveCalls("A"))
	}
	if _, err := s.Microreboot("A"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("parked call err = %v, want ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked call not released by µRB")
	}
}

func TestHangParkingDisabledSurfacesErrHang(t *testing.T) {
	s := deployEcho(t, "A")
	s.Use(func(ctx context.Context, call *Call, next Handler) (any, error) {
		return nil, ErrHang
	})
	if _, err := s.Invoke(bg(), "A", &Call{Op: "read"}); !errors.Is(err, ErrHang) {
		t.Fatalf("err = %v, want synchronous ErrHang", err)
	}
}

func TestRecoveryGroups(t *testing.T) {
	s := NewServer()
	app := Application{Name: "g", Components: []Descriptor{
		echoDesc("User", Entity, "Item"),
		echoDesc("Item", Entity, "Bid"),
		echoDesc("Bid", Entity),
		echoDesc("Region", Entity, "User"),
		echoDesc("MakeBid", StatelessSession), // loose refs only
		echoDesc("Search", StatelessSession),
	}}
	if err := s.Deploy(app); err != nil {
		t.Fatal(err)
	}
	g, err := s.RecoveryGroup("Bid")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Bid", "Item", "Region", "User"}
	if len(g) != len(want) {
		t.Fatalf("group = %v, want %v", g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("group = %v, want %v", g, want)
		}
	}
	// Session components stay alone.
	g2, _ := s.RecoveryGroup("MakeBid")
	if len(g2) != 1 || g2[0] != "MakeBid" {
		t.Fatalf("MakeBid group = %v, want singleton", g2)
	}
	// µRB of one group member takes the whole group down.
	rb, err := s.BeginMicroreboot("User")
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Members) != 4 {
		t.Fatalf("reboot members = %v, want 4 entities", rb.Members)
	}
	for _, m := range rb.Members {
		if _, err := s.Registry().Lookup(m); !errors.Is(err, ErrRetryAfter) {
			t.Fatalf("member %s not sentinel-bound: %v", m, err)
		}
	}
	// Non-members unaffected.
	if _, err := s.Registry().Lookup("Search"); err != nil {
		t.Fatalf("Search lookup: %v", err)
	}
	if err := s.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
}

// Property: recovery-group membership is symmetric and idempotent —
// for random hard-ref graphs, a ∈ group(b) ⇔ b ∈ group(a), and
// group(group(a)[i]) == group(a).
func TestPropertyRecoveryGroupClosure(t *testing.T) {
	f := func(edges []uint8) bool {
		const n = 8
		s := NewServer()
		app := Application{Name: "p"}
		refs := make(map[int][]string)
		for _, e := range edges {
			a, b := int(e>>4)%n, int(e&0xF)%n
			if a != b {
				refs[a] = append(refs[a], fmt.Sprintf("C%d", b))
			}
		}
		for i := 0; i < n; i++ {
			app.Components = append(app.Components, echoDesc(fmt.Sprintf("C%d", i), Entity, refs[i]...))
		}
		if err := s.Deploy(app); err != nil {
			return false
		}
		groups := map[string][]string{}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("C%d", i)
			g, err := s.RecoveryGroup(name)
			if err != nil {
				return false
			}
			groups[name] = g
		}
		for name, g := range groups {
			inOwn := false
			for _, m := range g {
				if m == name {
					inOwn = true
				}
				// symmetry: every member's group equals this group
				mg := groups[m]
				if len(mg) != len(g) {
					return false
				}
				for k := range g {
					if mg[k] != g[k] {
						return false
					}
				}
			}
			if !inOwn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryCorruptionAndHealing(t *testing.T) {
	s := deployEcho(t, "A", "B")
	for _, mode := range []string{"null", "invalid"} {
		if err := s.Registry().Corrupt("A", mode); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Invoke(bg(), "A", &Call{Op: "read"}); !errors.Is(err, ErrComponentFault) {
			t.Fatalf("mode %s: err = %v, want ErrComponentFault", mode, err)
		}
		// A µRB rebinds the name, healing the corruption.
		if _, err := s.Microreboot("A"); err != nil {
			t.Fatal(err)
		}
		if !s.Registry().Healthy("A") {
			t.Fatalf("mode %s: binding not healed by µRB", mode)
		}
	}
	// "wrong" resolves to another component's container.
	if err := s.Registry().Corrupt("A", "wrong"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Invoke(bg(), "A", &Call{Op: "read"})
	if err != nil {
		t.Fatalf("wrong-mode invoke should succeed: %v", err)
	}
	if res != "B:read" {
		t.Fatalf("wrong-mode result = %v, want routed to B", res)
	}
	if _, err := s.Microreboot("A"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Invoke(bg(), "A", &Call{Op: "read"})
	if res != "A:read" {
		t.Fatal("µRB did not heal wrong binding")
	}
	if err := s.Registry().Corrupt("Ghost", "null"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("corrupt unbound err = %v", err)
	}
	if err := s.Registry().Corrupt("A", "weird"); err == nil {
		t.Fatal("unknown mode should error")
	}
}

func TestTxMethodMapCorruptionAndHealing(t *testing.T) {
	s := deployEcho(t, "A")
	c, _ := s.Container("A")
	for _, mode := range []string{"null", "invalid"} {
		if err := c.CorruptTxMethodMap(mode); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Invoke(bg(), "A", &Call{Op: "write"}); !errors.Is(err, ErrComponentFault) {
			t.Fatalf("mode %s: Invoke err = %v, want ErrComponentFault", mode, err)
		}
		if _, err := s.Microreboot("A"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Invoke(bg(), "A", &Call{Op: "write"}); err != nil {
			t.Fatalf("mode %s: Invoke after µRB: %v", mode, err)
		}
	}
	// "wrong" swaps attributes silently — calls succeed but run with the
	// wrong transactional behavior.
	if err := c.CorruptTxMethodMap("wrong"); err != nil {
		t.Fatal(err)
	}
	attr, err := c.TxAttrFor("write")
	if err != nil {
		t.Fatal(err)
	}
	if attr != TxNever {
		t.Fatalf("wrong-mode attr = %v, want swapped TxNever", attr)
	}
	if err := c.CorruptTxMethodMap("nope"); err == nil {
		t.Fatal("unknown mode should error")
	}
}

func TestMicrorebootAbortsTransactions(t *testing.T) {
	d := db.New(nil)
	if err := d.CreateTable(db.Schema{Name: "t", Columns: []db.Column{{Name: "v", Type: db.Int}}}); err != nil {
		t.Fatal(err)
	}
	s := deployEcho(t, "A", "B")
	txA, _ := d.Begin()
	txB, _ := d.Begin()
	s.RegisterTx("A", txA)
	s.RegisterTx("B", txB)
	rb, err := s.Microreboot("A")
	if err != nil {
		t.Fatal(err)
	}
	if rb.AbortedTxs != 1 {
		t.Fatalf("AbortedTxs = %d, want 1", rb.AbortedTxs)
	}
	if !txA.Done() {
		t.Fatal("A's transaction not aborted by µRB")
	}
	if txB.Done() {
		t.Fatal("B's transaction wrongly aborted")
	}
	// Released transactions are not aborted.
	txA2, _ := d.Begin()
	s.RegisterTx("A", txA2)
	s.ReleaseTx("A", txA2)
	_ = txA2.Commit()
	rb2, _ := s.Microreboot("A")
	if rb2.AbortedTxs != 0 {
		t.Fatalf("AbortedTxs = %d, want 0 after release", rb2.AbortedTxs)
	}
	_ = txB.Abort()
}

func TestMicrorebootReleasesLeakedMemory(t *testing.T) {
	s := deployEcho(t, "A")
	c, _ := s.Container("A")
	c.Leak(1 << 20)
	c.Leak(1 << 20)
	if c.LeakedBytes() != 2<<20 {
		t.Fatalf("LeakedBytes = %d", c.LeakedBytes())
	}
	rb, err := s.Microreboot("A")
	if err != nil {
		t.Fatal(err)
	}
	if rb.FreedBytes != 2<<20 {
		t.Fatalf("FreedBytes = %d, want 2MiB", rb.FreedBytes)
	}
	c, _ = s.Container("A")
	if c.LeakedBytes() != 0 {
		t.Fatal("leak survived µRB")
	}
}

func TestFactoryPreservedAcrossMicroreboot(t *testing.T) {
	// State captured in the factory closure (the classloader/static-var
	// analog) must survive a µRB; instance state must not.
	staticCounter := 0
	s := NewServer()
	err := s.Deploy(Application{Name: "t", Components: []Descriptor{{
		Name: "C",
		Factory: func() Component {
			staticCounter++
			return &echoComponent{name: "C"}
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	afterDeploy := staticCounter
	if afterDeploy == 0 {
		t.Fatal("factory never invoked at deploy")
	}
	if _, err := s.Microreboot("C"); err != nil {
		t.Fatal(err)
	}
	if staticCounter <= afterDeploy {
		t.Fatal("factory not reused for reinstantiation")
	}
}

func TestRebootObservers(t *testing.T) {
	s := deployEcho(t, "A", "B")
	var events []*Reboot
	s.OnReboot(func(r *Reboot) { events = append(events, r) })
	if _, err := s.Microreboot("A"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Members[0] != "A" || events[0].Scope != ScopeComponent {
		t.Fatalf("events = %+v", events)
	}
}

func TestScopedReboots(t *testing.T) {
	s := NewServer()
	err := s.Deploy(Application{Name: "app", Components: []Descriptor{
		echoDesc("WAR", Web),
		echoDesc("E1", StatelessSession),
		echoDesc("E2", Entity),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// WAR scope picks only web components.
	rb, err := s.BeginScopedReboot(ScopeWAR, "app")
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Members) != 1 || rb.Members[0] != "WAR" {
		t.Fatalf("WAR reboot members = %v", rb.Members)
	}
	if err := s.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
	// App scope covers everything in the app.
	rb, err = s.BeginScopedReboot(ScopeApp, "app")
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Members) != 3 {
		t.Fatalf("app reboot members = %v", rb.Members)
	}
	// App restart is optimized: cheaper than the sum of its parts but
	// more expensive than any single EJB.
	var sum time.Duration
	m := uniformCost{}
	for _, n := range rb.Members {
		sum += m.CrashTime(n) + m.ReinitTime(n)
	}
	if rb.Duration() <= 0 {
		t.Fatal("app restart has zero duration")
	}
	if err := s.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
	// Process scope covers all components on the server.
	rb, err = s.BeginScopedReboot(ScopeProcess, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Members) != 3 {
		t.Fatalf("process reboot members = %v", rb.Members)
	}
	pc, pr := m.ScopeTime(ScopeProcess)
	if rb.Crash != pc || rb.Reinit != pr {
		t.Fatalf("process durations = %v/%v, want %v/%v", rb.Crash, rb.Reinit, pc, pr)
	}
	if err := s.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginScopedReboot(ScopeComponent, "app"); err == nil {
		t.Fatal("component scope through BeginScopedReboot should error")
	}
	if _, err := s.BeginScopedReboot(ScopeWAR, "ghost"); err == nil {
		t.Fatal("unknown app should error")
	}
}

func TestWARCostApplied(t *testing.T) {
	s := NewServer()
	if err := s.Deploy(Application{Name: "a", Components: []Descriptor{echoDesc("W", Web)}}); err != nil {
		t.Fatal(err)
	}
	rb, err := s.BeginMicroreboot("W")
	if err != nil {
		t.Fatal(err)
	}
	wc, wr := uniformCost{}.ScopeTime(ScopeWAR)
	if rb.Crash < wc || rb.Reinit < wr {
		t.Fatalf("WAR µRB durations %v/%v below scope cost %v/%v", rb.Crash, rb.Reinit, wc, wr)
	}
	_ = s.CompleteMicroreboot(rb)
}

func TestServeStoppedAndRebooting(t *testing.T) {
	s := deployEcho(t, "A")
	c, _ := s.Container("A")
	rb, _ := s.BeginMicroreboot("A")
	if _, err := s.Invoke(bg(), "A", &Call{Op: "read"}); !errors.Is(err, ErrRetryAfter) {
		t.Fatalf("Invoke during µRB err = %v, want ErrRetryAfter", err)
	}
	// Direct container dispatch during the reboot also refuses.
	if _, err := c.Serve(bg(), &Call{Op: "read"}); !errors.Is(err, ErrRetryAfter) {
		t.Fatalf("Serve during µRB err = %v, want ErrRetryAfter", err)
	}
	_ = s.CompleteMicroreboot(rb)
	if err := c.stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Serve(bg(), &Call{Op: "read"}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Serve stopped err = %v, want ErrStopped", err)
	}
}

func TestInstanceReplacement(t *testing.T) {
	s := deployEcho(t, "A")
	c, _ := s.Container("A")
	if err := c.ReplaceInstance(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceInstance(99); err == nil {
		t.Fatal("out-of-range replacement should error")
	}
}

// TestInterceptorPipeline verifies ordering, short-circuiting, and
// outcome observation of interceptors registered with Use.
func TestInterceptorPipeline(t *testing.T) {
	s := deployEcho(t, "A")
	var order []string
	s.Use(func(ctx context.Context, call *Call, next Handler) (any, error) {
		order = append(order, "outer-pre")
		res, err := next(ctx, call)
		order = append(order, "outer-post")
		return res, err
	})
	boom := errors.New("boom")
	s.Use(func(ctx context.Context, call *Call, next Handler) (any, error) {
		order = append(order, "inner")
		if call.Op == "write" {
			return nil, boom // short-circuit: the component never runs
		}
		return next(ctx, call)
	})
	if _, err := s.Invoke(bg(), "A", &Call{Op: "write"}); !errors.Is(err, boom) {
		t.Fatalf("short-circuited op err = %v, want boom", err)
	}
	res, err := s.Invoke(bg(), "A", &Call{Op: "read"})
	if err != nil || res != "A:read" {
		t.Fatalf("passthrough = %v/%v", res, err)
	}
	want := []string{"outer-pre", "inner", "outer-post", "outer-pre", "inner", "outer-post"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Interceptors observe every hop: the path-recording built-in runs before
// user interceptors, so Call.Component and Path are already populated.
func TestInterceptorSeesComponentAndPath(t *testing.T) {
	s := deployEcho(t, "A")
	var seen []string
	s.Use(func(ctx context.Context, call *Call, next Handler) (any, error) {
		seen = append(seen, call.Component)
		if len(call.Path) == 0 || call.Path[len(call.Path)-1] != call.Component {
			t.Errorf("Path %v does not end with %s", call.Path, call.Component)
		}
		return next(ctx, call)
	})
	if _, err := s.Invoke(bg(), "A", &Call{Op: "read"}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "A" {
		t.Fatalf("seen = %v", seen)
	}
}

// Property: after any sequence of µRBs, every container is running, every
// binding healthy, and calls succeed — reintegration is always complete.
func TestPropertyMicrorebootAlwaysReintegrates(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	f := func(picks []uint8) bool {
		s := deployEcho(t, names...)
		for _, p := range picks {
			n := names[int(p)%len(names)]
			if _, err := s.Microreboot(n); err != nil {
				return false
			}
		}
		for _, n := range names {
			c, err := s.Registry().Lookup(n)
			if err != nil {
				return false
			}
			if c.State() != StateRunning {
				return false
			}
			if _, err := s.Invoke(bg(), n, &Call{Op: "read"}); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(51))}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvResource(t *testing.T) {
	s := NewServer(WithResource("db", 42))
	var got int
	ok := false
	err := s.Deploy(Application{Name: "a", Components: []Descriptor{{
		Name: "C",
		Factory: func() Component {
			return initFunc(func(env *Env) error {
				got, ok = Resource[int](env, "db")
				if env.ComponentName() != "C" {
					t.Errorf("ComponentName = %s", env.ComponentName())
				}
				return nil
			})
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || got != 42 {
		t.Fatalf("Resource = %v/%v", got, ok)
	}
}

type initFunc func(*Env) error

func (f initFunc) Init(e *Env) error                         { return f(e) }
func (f initFunc) Serve(context.Context, *Call) (any, error) { return nil, nil }
func (f initFunc) Stop() error                               { return nil }

func TestStringers(t *testing.T) {
	for _, k := range []Kind{StatelessSession, Entity, Web, Kind(9)} {
		if k.String() == "" {
			t.Fatal("empty Kind string")
		}
	}
	for _, sc := range []Scope{ScopeComponent, ScopeWAR, ScopeApp, ScopeProcess, ScopeNode, Scope(9)} {
		if sc.String() == "" {
			t.Fatal("empty Scope string")
		}
	}
	for _, st := range []ContainerState{StateRunning, StateRebooting, StateStopped, ContainerState(9)} {
		if st.String() == "" {
			t.Fatal("empty ContainerState string")
		}
	}
}

// pageComponent renders its op into the request's body buffer; the op
// "hold" then blocks until a microreboot kills its call.
type pageComponent struct{ started chan struct{} }

func (p pageComponent) Init(*Env) error { return nil }
func (p pageComponent) Stop() error     { return nil }
func (p pageComponent) Serve(ctx context.Context, call *Call) (any, error) {
	root := call.Root()
	root.Body = append(root.Body, call.Op...)
	if call.Op == "hold" {
		p.started <- struct{}{}
		<-ctx.Done()
		return nil, CancelCause(ctx)
	}
	return SlotResult, nil
}

// A call that a microreboot killed mid-request keeps the bytes it
// rendered while later pooled requests render theirs: Release refuses
// it, so no later request is handed its buffer.
func TestKilledCallKeepsItsBody(t *testing.T) {
	pc := pageComponent{started: make(chan struct{}, 1)}
	s := NewServer()
	if err := s.Deploy(Application{Name: "t", Components: []Descriptor{{
		Name: "Page", Factory: func() Component { return pc },
	}}}); err != nil {
		t.Fatal(err)
	}
	killed := NewCall("hold", "", nil, 0)
	done := make(chan error, 1)
	go func() {
		_, err := s.Invoke(bg(), "Page", killed)
		done <- err
	}()
	<-pc.started
	if _, err := s.Microreboot("Page"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrKilled) {
		t.Fatalf("held call err = %v, want ErrKilled", err)
	}
	if killed.Release() {
		t.Fatal("Release recycled a killed call")
	}
	for i := 0; i < 4; i++ {
		next := NewCall("next", "", nil, 0)
		if _, err := s.Invoke(bg(), "Page", next); err != nil {
			t.Fatal(err)
		}
		if string(next.Body) != "next" {
			t.Fatalf("pooled request rendered %q, want %q", next.Body, "next")
		}
		next.Release()
	}
	if string(killed.Body) != "hold" {
		t.Fatalf("killed call's body = %q, want %q", killed.Body, "hold")
	}
}
