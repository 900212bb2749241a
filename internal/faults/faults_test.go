package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

func newTarget(t *testing.T, store session.Store) (*ebid.App, *Injector) {
	t.Helper()
	d := db.New(db.NewWAL()) // table repair replays the in-memory history
	cfg := ebid.DatasetConfig{Users: 50, Items: 100, BidsPerItem: 3, Categories: 5, Regions: 5, OldItems: 10}
	if err := ebid.LoadDataset(d, cfg); err != nil {
		t.Fatal(err)
	}
	app, err := ebid.New(d, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	return app, NewInjector(app.Server, d, store)
}

func call(op string, sess string, args *ebid.OpArgs) *core.Call {
	return &core.Call{Op: op, SessionID: sess, Args: args}
}

func login(t *testing.T, app *ebid.App, sess string, user int64) {
	t.Helper()
	if _, err := app.Execute(context.Background(), call(ebid.Authenticate, sess, &ebid.OpArgs{User: user})); err != nil {
		t.Fatalf("login: %v", err)
	}
}

func TestDeadlockHangsAndMicrorebootCures(t *testing.T) {
	app, inj := newTarget(t, session.NewFastS())
	f, err := inj.Inject(Spec{Kind: Deadlock, Component: ebid.MakeBid})
	if err != nil {
		t.Fatal(err)
	}
	login(t, app, "s", 2)
	_, err = app.Execute(context.Background(), call(ebid.MakeBid, "s", &ebid.OpArgs{Item: 1}))
	if !errors.Is(err, core.ErrHang) {
		t.Fatalf("err = %v, want ErrHang", err)
	}
	// The deadlock holds a DB lock; a concurrent writer conflicts.
	tx, _ := app.DB.Begin()
	row, _ := tx.Get(ebid.TblUsers, 1)
	if err := tx.Update(ebid.TblUsers, 1, row); !errors.Is(err, db.ErrConflict) {
		t.Fatalf("expected lock conflict while deadlocked, got %v", err)
	}
	_ = tx.Abort()

	// EJB µRB cures the hang and rolls back the lock-holding tx.
	rb, err := app.Server.Microreboot(ebid.MakeBid)
	if err != nil {
		t.Fatal(err)
	}
	if rb.AbortedTxs == 0 {
		t.Fatal("µRB did not abort the deadlocked transaction")
	}
	if f.Active() {
		t.Fatal("fault still active after covering µRB")
	}
	if _, err := app.Execute(context.Background(), call(ebid.MakeBid, "s", &ebid.OpArgs{Item: 1})); err != nil {
		t.Fatalf("post-recovery call failed: %v", err)
	}
	// The lock is released.
	tx2, _ := app.DB.Begin()
	row, _ = tx2.Get(ebid.TblUsers, 1)
	if err := tx2.Update(ebid.TblUsers, 1, row); err != nil {
		t.Fatalf("lock not released: %v", err)
	}
	_ = tx2.Abort()
}

func TestTransientExceptionCuredByComponentNotOthers(t *testing.T) {
	app, inj := newTarget(t, session.NewFastS())
	f, err := inj.Inject(Spec{Kind: TransientException, Component: ebid.BrowseCategories})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Execute(context.Background(), call(ebid.BrowseCategories, "", nil)); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// µRB of an unrelated component does not cure it.
	if _, err := app.Server.Microreboot(ebid.ViewItem); err != nil {
		t.Fatal(err)
	}
	if !f.Active() {
		t.Fatal("unrelated µRB cured the fault")
	}
	if _, err := app.Server.Microreboot(ebid.BrowseCategories); err != nil {
		t.Fatal(err)
	}
	if f.Active() {
		t.Fatal("covering µRB did not cure")
	}
	if _, err := app.Execute(context.Background(), call(ebid.BrowseCategories, "", nil)); err != nil {
		t.Fatalf("post-cure call: %v", err)
	}
}

func TestAppMemoryLeakReclaimedByMicroreboot(t *testing.T) {
	app, inj := newTarget(t, session.NewFastS())
	if _, err := inj.Inject(Spec{Kind: AppMemoryLeak, Component: ebid.ViewItem, LeakPerCall: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := app.Execute(context.Background(), call(ebid.ViewItem, "", &ebid.OpArgs{Item: 1})); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := app.Server.Container(ebid.ViewItem)
	if c.LeakedBytes() != 5<<20 {
		t.Fatalf("leaked = %d, want 5MiB", c.LeakedBytes())
	}
	rb, err := app.Server.Microreboot(ebid.ViewItem)
	if err != nil {
		t.Fatal(err)
	}
	if rb.FreedBytes != 5<<20 {
		t.Fatalf("freed = %d", rb.FreedBytes)
	}
	// The leak *code* persists (the bug is not fixed by rebooting).
	if _, err := app.Execute(context.Background(), call(ebid.ViewItem, "", &ebid.OpArgs{Item: 1})); err != nil {
		t.Fatal(err)
	}
	c, _ = app.Server.Container(ebid.ViewItem)
	if c.LeakedBytes() != 1<<20 {
		t.Fatalf("leak code gone after µRB: %d", c.LeakedBytes())
	}
}

func TestCorruptPrimaryKeysModes(t *testing.T) {
	for _, mode := range []Mode{ModeNull, ModeInvalid, ModeWrong} {
		app, inj := newTarget(t, session.NewFastS())
		f, err := inj.Inject(Spec{Kind: CorruptPrimaryKeys, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		login(t, app, "s", 2)
		if _, err := app.Execute(context.Background(), call(ebid.MakeBid, "s", &ebid.OpArgs{Item: 1})); err != nil {
			t.Fatal(err)
		}
		if _, err := app.Execute(context.Background(), call(ebid.CommitBid, "s", &ebid.OpArgs{Amount: 5.0})); err == nil {
			t.Fatalf("mode %s: CommitBid should fail with corrupted keys", mode)
		}
		if f.Cure != CureComponent {
			t.Fatalf("mode %s: cure = %v, want EJB", mode, f.Cure)
		}
		if (mode == ModeWrong) != f.DataRepairNeeded {
			t.Fatalf("mode %s: DataRepairNeeded = %v", mode, f.DataRepairNeeded)
		}
		if _, err := app.Server.Microreboot(ebid.IdentityManager); err != nil {
			t.Fatal(err)
		}
		if f.Active() {
			t.Fatalf("mode %s: not cured by IdentityManager µRB", mode)
		}
		if _, err := app.Execute(context.Background(), call(ebid.CommitBid, "s", &ebid.OpArgs{Amount: 5.0})); err != nil {
			t.Fatalf("mode %s: post-cure CommitBid: %v", mode, err)
		}
	}
}

func TestCorruptNamingCuredByMicroreboot(t *testing.T) {
	for _, mode := range []Mode{ModeNull, ModeInvalid, ModeWrong} {
		app, inj := newTarget(t, session.NewFastS())
		f, err := inj.Inject(Spec{Kind: CorruptNaming, Component: ebid.ViewItem, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		_, err = app.Execute(context.Background(), call(ebid.ViewItem, "", &ebid.OpArgs{Item: 1}))
		if mode != ModeWrong && err == nil {
			t.Fatalf("mode %s: expected failure", mode)
		}
		if _, err := app.Server.Microreboot(ebid.ViewItem); err != nil {
			t.Fatal(err)
		}
		if f.Active() {
			t.Fatalf("mode %s: still active", mode)
		}
		if !app.Server.Registry().Healthy(ebid.ViewItem) {
			t.Fatalf("mode %s: binding not healed", mode)
		}
	}
}

func TestCorruptSessionAttrsSelfCuring(t *testing.T) {
	app, inj := newTarget(t, session.NewFastS())
	f, err := inj.Inject(Spec{Kind: CorruptSessionAttrs, Component: ebid.ViewItem, Mode: ModeNull})
	if err != nil {
		t.Fatal(err)
	}
	if f.Cure != CureNone {
		t.Fatalf("cure = %v, want unnecessary", f.Cure)
	}
	// First call fails; the container discards the bad instance.
	if _, err := app.Execute(context.Background(), call(ebid.ViewItem, "", &ebid.OpArgs{Item: 1})); err == nil {
		t.Fatal("first call should fail")
	}
	if f.Active() {
		t.Fatal("fault should have self-cured")
	}
	if _, err := app.Execute(context.Background(), call(ebid.ViewItem, "", &ebid.OpArgs{Item: 1})); err != nil {
		t.Fatalf("second call: %v", err)
	}
}

func TestCorruptSessionAttrsWrongNeedsEJBAndWAR(t *testing.T) {
	app, inj := newTarget(t, session.NewFastS())
	f, err := inj.Inject(Spec{Kind: CorruptSessionAttrs, Component: ebid.ViewItem, Mode: ModeWrong})
	if err != nil {
		t.Fatal(err)
	}
	body, err := app.Execute(context.Background(), call(ebid.ViewItem, "", &ebid.OpArgs{Item: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "<html>item 1: gadget, max bid 0.01, 1 bids</html>" {
		t.Fatalf("wrong-mode should silently return wrong data, got %q", body)
	}
	// EJB µRB alone is not enough.
	if _, err := app.Server.Microreboot(ebid.ViewItem); err != nil {
		t.Fatal(err)
	}
	if !f.Active() {
		t.Fatal("EJB µRB alone cured EJB+WAR fault")
	}
	// Adding the WAR reboot completes the cure.
	rb, err := app.Server.BeginScopedReboot(core.ScopeWAR, "eBid")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Server.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
	if f.Active() {
		t.Fatal("EJB+WAR reboots did not cure the wrong-attribute fault")
	}
	body, err = app.Execute(context.Background(), call(ebid.ViewItem, "", &ebid.OpArgs{Item: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) == "<html>item 1: gadget, max bid 0.01, 1 bids</html>" {
		t.Fatal("still returning wrong data after cure")
	}
}

func TestCorruptFastSCuredByWARReboot(t *testing.T) {
	fs := session.NewFastS()
	app, inj := newTarget(t, fs)
	login(t, app, "victim", 3)
	f, err := inj.Inject(Spec{Kind: CorruptFastS, SessionID: "victim", Mode: ModeInvalid})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Execute(context.Background(), call(ebid.AboutMe, "victim", nil)); err == nil {
		t.Fatal("corrupted session should break AboutMe")
	}
	rb, err := app.Server.BeginScopedReboot(core.ScopeWAR, "eBid")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Server.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
	if f.Active() {
		t.Fatal("WAR reboot did not cure FastS corruption")
	}
	// The damaged session was scrubbed: the user re-logs-in cleanly.
	if _, err := fs.Read("victim"); err == nil {
		t.Fatal("corrupted session not scrubbed")
	}
	login(t, app, "victim", 3)
	if _, err := app.Execute(context.Background(), call(ebid.AboutMe, "victim", nil)); err != nil {
		t.Fatalf("after re-login: %v", err)
	}
}

// TestCorruptSSMSelfCuring: on a single-node SSM (one shard × one
// replica) there is no healthy copy, so the discard costs the session.
func TestCorruptSSMSelfCuring(t *testing.T) {
	ssm, err := session.NewSSMCluster(session.ClusterConfig{Shards: 1, Replicas: 1, WriteQuorum: 1, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	app, inj := newTarget(t, ssm)
	login(t, app, "v", 3)
	f, err := inj.Inject(Spec{Kind: CorruptSSM, SessionID: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Cure != CureNone {
		t.Fatalf("cure = %v, want none (checksum auto-discard)", f.Cure)
	}
	if _, err := app.Execute(context.Background(), call(ebid.AboutMe, "v", nil)); err == nil {
		t.Fatal("first read should fail (discard)")
	}
	if ssm.Discarded() != 1 {
		t.Fatalf("discarded = %d", ssm.Discarded())
	}
	login(t, app, "v", 3)
	if _, err := app.Execute(context.Background(), call(ebid.AboutMe, "v", nil)); err != nil {
		t.Fatalf("after re-login: %v", err)
	}
}

func TestCorruptDBNeedsTableRepair(t *testing.T) {
	app, inj := newTarget(t, session.NewFastS())
	f, err := inj.Inject(Spec{Kind: CorruptDB, Table: ebid.TblUsers, RowKey: 2, Column: "region", Mode: ModeInvalid})
	if err != nil {
		t.Fatal(err)
	}
	if f.Cure != CureManual || !f.DataRepairNeeded {
		t.Fatalf("cure = %v repair = %v", f.Cure, f.DataRepairNeeded)
	}
	// No reboot level cures it — not even a process restart.
	rb, _ := app.Server.BeginScopedReboot(core.ScopeProcess, "")
	_ = app.Server.CompleteMicroreboot(rb)
	if !f.Active() {
		t.Fatal("process restart should not cure DB corruption")
	}
	bad, _ := app.DB.CheckTable(ebid.TblUsers)
	if len(bad) != 1 {
		t.Fatalf("CheckTable = %v", bad)
	}
	if _, err := app.DB.RepairTable(ebid.TblUsers); err != nil {
		t.Fatal(err)
	}
	bad, _ = app.DB.CheckTable(ebid.TblUsers)
	if len(bad) != 0 {
		t.Fatal("repair did not fix the table")
	}
	f.Deactivate()
}

func TestJVMLevelFaultsNeedProcessRestart(t *testing.T) {
	app, inj := newTarget(t, session.NewFastS())
	f, err := inj.Inject(Spec{Kind: BadSyscall})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Execute(context.Background(), call(ebid.OpHome, "", nil)); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	// App-level reboot insufficient.
	rb, _ := app.Server.BeginScopedReboot(core.ScopeApp, "eBid")
	_ = app.Server.CompleteMicroreboot(rb)
	if !f.Active() {
		t.Fatal("app reboot cured a JVM-level fault")
	}
	rb, _ = app.Server.BeginScopedReboot(core.ScopeProcess, "")
	_ = app.Server.CompleteMicroreboot(rb)
	if f.Active() {
		t.Fatal("process restart did not cure")
	}
	if _, err := app.Execute(context.Background(), call(ebid.OpHome, "", nil)); err != nil {
		t.Fatalf("post-restart: %v", err)
	}
}

func TestExtraJVMLeakNeedsNodeReboot(t *testing.T) {
	app, inj := newTarget(t, session.NewFastS())
	f, err := inj.Inject(Spec{Kind: MemLeakExtraJVM})
	if err != nil {
		t.Fatal(err)
	}
	inj.GrowJVMLeak(0, 100<<20)
	rb, _ := app.Server.BeginScopedReboot(core.ScopeProcess, "")
	_ = app.Server.CompleteMicroreboot(rb)
	if f.Active() == false {
		t.Fatal("process restart cured an extra-JVM (kernel) leak")
	}
	_, extra := inj.JVMLeakBytes()
	if extra == 0 {
		t.Fatal("extra leak reset by process restart")
	}
	rb, _ = app.Server.BeginScopedReboot(core.ScopeNode, "")
	_ = app.Server.CompleteMicroreboot(rb)
	if f.Active() {
		t.Fatal("node reboot did not cure")
	}
	_, extra = inj.JVMLeakBytes()
	if extra != 0 {
		t.Fatal("node reboot did not reset extra leak")
	}
}

func newBrickCluster(t *testing.T) *session.SSMCluster {
	t.Helper()
	cl, err := session.NewSSMCluster(session.ClusterConfig{Shards: 2, Replicas: 3, WriteQuorum: 2, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestBrickCrashMaskedByQuorumAndCuredByRestart(t *testing.T) {
	cl := newBrickCluster(t)
	app, inj := newTarget(t, cl)
	login(t, app, "s", 3)
	victim := cl.Bricks()[0].Name()
	f, err := inj.Inject(Spec{Kind: BrickCrash, Component: victim})
	if err != nil {
		t.Fatal(err)
	}
	if f.Cure != CureComponent {
		t.Fatalf("cure = %v, want EJB-equivalent brick µRB", f.Cure)
	}
	if got := cl.DeadBricks(); len(got) != 1 || got[0] != victim {
		t.Fatalf("DeadBricks = %v", got)
	}
	// One dead brick of three: session operations keep working.
	if _, err := app.Execute(context.Background(), call(ebid.AboutMe, "s", nil)); err != nil {
		t.Fatalf("session op with one brick down: %v", err)
	}
	login(t, app, "t", 4) // writes still reach the W=2 quorum
	// Restarting the brick re-replicates the shard and clears the fault.
	if _, err := cl.RestartBrick(victim); err != nil {
		t.Fatal(err)
	}
	if f.Active() {
		t.Fatal("brick-crash fault still active after brick restart")
	}
	if len(cl.DeadBricks()) != 0 {
		t.Fatalf("DeadBricks = %v after restart", cl.DeadBricks())
	}
}

func TestBrickSlowRoutedAroundAndCleared(t *testing.T) {
	cl := newBrickCluster(t)
	app, inj := newTarget(t, cl)
	login(t, app, "s", 3)
	// Target a brick on the session's shard so reads must route around it.
	shard := cl.ShardFor("s")
	victim := ""
	for _, b := range cl.Bricks() {
		if b.Shard() == shard {
			victim = b.Name()
			break
		}
	}
	f, err := inj.Inject(Spec{Kind: BrickSlow, Component: victim})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Execute(context.Background(), call(ebid.AboutMe, "s", nil)); err != nil {
		t.Fatalf("session op with slow brick: %v", err)
	}
	if cl.SlowBypasses() == 0 {
		t.Fatal("reads did not route around the slow brick")
	}
	f.Deactivate()
	b, _ := cl.BrickByName(victim)
	if b.Slow() {
		t.Fatal("Deactivate did not heal the slow brick")
	}
}

func TestBrickFaultsSurviveAppNodeReboots(t *testing.T) {
	// Regression: bricks live on separate SSM machines, so no reboot of
	// the application node — not even process scope — may cure a brick
	// fault. Only the brick's own restart clears it.
	cl := newBrickCluster(t)
	app, inj := newTarget(t, cl)
	victim := cl.Bricks()[0].Name()
	slowFault, err := inj.Inject(Spec{Kind: BrickSlow, Component: victim})
	if err != nil {
		t.Fatal(err)
	}
	crashFault, err := inj.Inject(Spec{Kind: BrickCrash, Component: victim})
	if err != nil {
		t.Fatal(err)
	}
	for _, scope := range []core.Scope{core.ScopeApp, core.ScopeProcess} {
		rb, _ := app.Server.BeginScopedReboot(scope, "eBid")
		_ = app.Server.CompleteMicroreboot(rb)
	}
	if !slowFault.Active() || !crashFault.Active() {
		t.Fatal("application-node reboot cured an off-node brick fault")
	}
	b, _ := cl.BrickByName(victim)
	if b.Up() {
		t.Fatal("crashed brick came back without a brick restart")
	}
	if _, err := cl.RestartBrick(victim); err != nil {
		t.Fatal(err)
	}
	if slowFault.Active() || crashFault.Active() {
		t.Fatal("brick restart did not clear the brick faults")
	}
}

func TestCorruptSSMWorksOnCluster(t *testing.T) {
	cl := newBrickCluster(t)
	app, inj := newTarget(t, cl)
	login(t, app, "v", 3)
	if _, err := inj.Inject(Spec{Kind: CorruptSSM, SessionID: "v"}); err != nil {
		t.Fatal(err)
	}
	// The cluster masks single-replica corruption: the damaged copy is
	// discarded and a healthy replica serves the read.
	if _, err := app.Execute(context.Background(), call(ebid.AboutMe, "v", nil)); err != nil {
		t.Fatalf("read after single-replica corruption: %v", err)
	}
	if cl.Discarded() != 1 {
		t.Fatalf("discarded = %d, want 1", cl.Discarded())
	}
}

func TestBrickFaultsRequireCluster(t *testing.T) {
	_, inj := newTarget(t, session.NewFastS())
	if _, err := inj.Inject(Spec{Kind: BrickCrash}); err == nil {
		t.Fatal("brick crash on FastS should fail")
	}
	cl := newBrickCluster(t)
	_, inj = newTarget(t, cl)
	if _, err := inj.Inject(Spec{Kind: BrickSlow, Component: "ssm/s9-r9"}); err == nil {
		t.Fatal("unknown brick name should fail")
	}
}

func TestKindAndCureStrings(t *testing.T) {
	for k := Deadlock; k <= BrickSlow; k++ {
		if k.String() == "" {
			t.Fatalf("Kind %d has empty name", k)
		}
	}
	for c := CureNone; c <= CureManual; c++ {
		if c.String() == "" {
			t.Fatalf("CureLevel %d has empty name", c)
		}
	}
}

func TestInjectUnknownComponent(t *testing.T) {
	_, inj := newTarget(t, session.NewFastS())
	if _, err := inj.Inject(Spec{Kind: TransientException, Component: "Ghost"}); err == nil {
		t.Fatal("injection into unknown component should fail")
	}
	if _, err := inj.Inject(Spec{Kind: CorruptSSM, SessionID: "x"}); err == nil {
		t.Fatal("SSM corruption on FastS store should fail")
	}
}
