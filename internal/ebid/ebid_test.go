package ebid

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

func smallDataset() DatasetConfig {
	return DatasetConfig{
		Users: 50, Items: 200, BidsPerItem: 5,
		Categories: 5, Regions: 8, OldItems: 20, Seed: 1,
	}
}

func newApp(t *testing.T) (*App, *session.FastS) {
	t.Helper()
	d := db.New(nil)
	if err := LoadDataset(d, smallDataset()); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	fs := session.NewFastS()
	app, err := New(d, fs, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return app, fs
}

func exec(t *testing.T, app *App, sessID, op string, args *OpArgs) string {
	t.Helper()
	body, err := app.Execute(context.Background(), &core.Call{Op: op, SessionID: sessID, Args: args})
	if err != nil {
		t.Fatalf("Execute(%s): %v", op, err)
	}
	return string(body)
}

func login(t *testing.T, app *App, sessID string, user int64) {
	t.Helper()
	exec(t, app, sessID, Authenticate, &OpArgs{User: user})
}

func TestDeploymentRoster(t *testing.T) {
	app, _ := newApp(t)
	comps := app.Server.Components()
	// 9 entities + 17 session + WAR = 27 components.
	if len(comps) != 27 {
		t.Fatalf("deployed %d components, want 27: %v", len(comps), comps)
	}
	// EntityGroup must be exactly the five Table 3 members.
	g, err := app.Server.RecoveryGroup(EntItem)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 5 {
		t.Fatalf("EntityGroup = %v, want 5 members", g)
	}
	for _, m := range g {
		if !isEntityGroupMember(m) {
			t.Fatalf("unexpected group member %s", m)
		}
	}
	// Session components microreboot alone.
	g2, _ := app.Server.RecoveryGroup(MakeBid)
	if len(g2) != 1 {
		t.Fatalf("MakeBid group = %v, want singleton", g2)
	}
}

func TestStaticAndReadOnlyOps(t *testing.T) {
	app, _ := newApp(t)
	for _, op := range []string{OpHome, OpBrowseMenu, OpSellForm, BrowseCategories, BrowseRegions, ViewBidHistory} {
		body := exec(t, app, "", op, nil)
		if body == "" {
			t.Fatalf("%s returned empty body", op)
		}
	}
	body := exec(t, app, "", ViewItem, &OpArgs{Item: 3})
	if want := "item 3"; !contains(body, want) {
		t.Fatalf("ViewItem body = %q, want contains %q", body, want)
	}
	body = exec(t, app, "", ViewUserInfo, &OpArgs{User: 2})
	if !contains(body, "user 2") {
		t.Fatalf("ViewUserInfo body = %q", body)
	}
	body = exec(t, app, "", SearchItemsByCategory, &OpArgs{Category: 2})
	if !contains(body, "items") {
		t.Fatalf("Search body = %q", body)
	}
}

// Execute empties the call's body buffer when a request starts, so a
// plain core.Call that a caller reuses gets each body once, not appended
// to the last one.
func TestExecuteOnAReusedCall(t *testing.T) {
	app, _ := newApp(t)
	for _, op := range []string{ViewItem, OpHome} {
		call := &core.Call{Op: op, Args: &OpArgs{Item: 3}}
		first, err := app.Execute(context.Background(), call)
		if err != nil {
			t.Fatal(err)
		}
		want := string(first)
		second, err := app.Execute(context.Background(), call)
		if err != nil {
			t.Fatal(err)
		}
		if string(second) != want {
			t.Fatalf("%s on a reused call: %q, want %q", op, second, want)
		}
	}
}

func TestViewItemFallsBackToOldItem(t *testing.T) {
	app, _ := newApp(t)
	// Delete item 5 so ViewItem must consult OldItem (old-item id 5 exists).
	tx, _ := app.DB.Begin()
	if err := tx.Delete(TblItems, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	body := exec(t, app, "", ViewItem, &OpArgs{Item: 5})
	if !contains(body, "old item 5") {
		t.Fatalf("body = %q, want old item fallback", body)
	}
}

func TestLoginLogout(t *testing.T) {
	app, fs := newApp(t)
	login(t, app, "s1", 3)
	if fs.Len() != 1 {
		t.Fatalf("sessions = %d, want 1", fs.Len())
	}
	body := exec(t, app, "s1", AboutMe, nil)
	if !contains(body, "about user 3") {
		t.Fatalf("AboutMe body = %q", body)
	}
	exec(t, app, "s1", OpLogout, nil)
	if fs.Len() != 0 {
		t.Fatalf("sessions after logout = %d, want 0", fs.Len())
	}
	// Session ops now fail with the not-logged-in symptom.
	_, err := app.Execute(context.Background(), &core.Call{Op: AboutMe, SessionID: "s1"})
	if err == nil || !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("AboutMe after logout err = %v, want ErrNotLoggedIn", err)
	}
}

func TestBidFlow(t *testing.T) {
	app, _ := newApp(t)
	login(t, app, "s1", 3)
	exec(t, app, "s1", MakeBid, &OpArgs{Item: 7})
	before, _ := app.DB.RowCount(TblBids)
	body := exec(t, app, "s1", CommitBid, &OpArgs{Amount: 123.0})
	if !contains(body, "bid committed on item 7") {
		t.Fatalf("CommitBid body = %q", body)
	}
	after, _ := app.DB.RowCount(TblBids)
	if after != before+1 {
		t.Fatalf("bids %d -> %d, want +1", before, after)
	}
	// Item max_bid updated.
	tx, _ := app.DB.Begin()
	defer tx.Abort()
	item, err := tx.Get(TblItems, 7)
	if err != nil {
		t.Fatal(err)
	}
	if item["max_bid"].(float64) != 123.0 {
		t.Fatalf("max_bid = %v, want 123", item["max_bid"])
	}
}

func TestCommitBidWithoutSelection(t *testing.T) {
	app, _ := newApp(t)
	login(t, app, "s1", 3)
	_, err := app.Execute(context.Background(), &core.Call{Op: CommitBid, SessionID: "s1", Args: &OpArgs{Amount: 5.0}})
	if err == nil {
		t.Fatal("CommitBid without MakeBid should fail")
	}
}

func TestBuyNowFlow(t *testing.T) {
	app, _ := newApp(t)
	login(t, app, "s2", 4)
	exec(t, app, "s2", DoBuyNow, &OpArgs{Item: 9})
	body := exec(t, app, "s2", CommitBuyNow, nil)
	if !contains(body, "purchase committed for item 9") {
		t.Fatalf("body = %q", body)
	}
	n, _ := app.DB.RowCount(TblBuys)
	if n != 1 {
		t.Fatalf("buys = %d, want 1", n)
	}
}

func TestFeedbackFlow(t *testing.T) {
	app, _ := newApp(t)
	login(t, app, "s3", 5)
	exec(t, app, "s3", LeaveUserFeedback, &OpArgs{User: 6})
	body := exec(t, app, "s3", CommitUserFeedback, &OpArgs{Rating: 3, HasRating: true})
	if !contains(body, "feedback committed for user 6") {
		t.Fatalf("body = %q", body)
	}
	tx, _ := app.DB.Begin()
	defer tx.Abort()
	u, _ := tx.Get(TblUsers, 6)
	if u["rating"].(int64) != int64(6%11)+3 {
		t.Fatalf("rating = %v", u["rating"])
	}
}

func TestRegisterNewUserAndItem(t *testing.T) {
	app, fs := newApp(t)
	body := exec(t, app, "s4", RegisterNewUser, &OpArgs{Region: 2})
	if !contains(body, "registered user 51") {
		t.Fatalf("body = %q, want user 51 (next id after 50)", body)
	}
	if fs.Len() != 1 {
		t.Fatal("RegisterNewUser must auto-login")
	}
	body = exec(t, app, "s4", RegisterNewItem, &OpArgs{Category: 1})
	if !contains(body, "registered item 201") {
		t.Fatalf("body = %q, want item 201", body)
	}
}

func TestSessionSurvivesMicroreboot(t *testing.T) {
	app, _ := newApp(t)
	login(t, app, "s5", 7)
	exec(t, app, "s5", MakeBid, &OpArgs{Item: 3})
	// Microreboot the whole EntityGroup plus MakeBid itself.
	if _, err := app.Server.Microreboot(MakeBid, EntItem); err != nil {
		t.Fatal(err)
	}
	// Session state survived; the user can commit the bid.
	body := exec(t, app, "s5", CommitBid, &OpArgs{Amount: 9.0})
	if !contains(body, "bid committed") {
		t.Fatalf("post-µRB CommitBid body = %q", body)
	}
}

func TestCallsDuringMicrorebootGetRetryAfter(t *testing.T) {
	app, _ := newApp(t)
	rb, err := app.Server.BeginMicroreboot(ViewItem)
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.Execute(context.Background(), &core.Call{Op: ViewItem, Args: &OpArgs{Item: 1}})
	var ra *core.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("err = %v, want RetryAfterError", err)
	}
	// Other ops keep working during the µRB.
	exec(t, app, "", BrowseCategories, nil)
	if err := app.Server.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
	exec(t, app, "", ViewItem, &OpArgs{Item: 1})
}

func TestViewItemMidEntityRebootIsRefusedNotOldItem(t *testing.T) {
	// Regression: ViewItem fell back to OldItem on any error from Item, so
	// while the entity group was microrebooting, a live item whose id also
	// exists among the old items (1–20 here) was answered "old item N".
	app, _ := newApp(t)
	if body := exec(t, app, "", ViewItem, &OpArgs{Item: 1}); !contains(body, "item 1:") || contains(body, "old item") {
		t.Fatalf("before the µRB: body = %q, want live item 1", body)
	}
	tx, _ := app.DB.Begin()
	if _, err := tx.Get(TblOldItems, 1); err != nil {
		t.Fatalf("old item 1 must exist for this test to mean anything: %v", err)
	}
	tx.Abort()

	rb, err := app.Server.BeginMicroreboot(EntItem)
	if err != nil {
		t.Fatal(err)
	}
	body, err := app.Execute(context.Background(), &core.Call{Op: ViewItem, Args: &OpArgs{Item: 1}})
	var ra *core.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("mid-µRB ViewItem: body %q, err %v; want RetryAfterError", body, err)
	}
	if err := app.Server.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
	if body := exec(t, app, "", ViewItem, &OpArgs{Item: 1}); contains(body, "old item") {
		t.Fatalf("after the µRB: body = %q, want live item 1", body)
	}
}

func TestMicrorebootDurationMatchesTable3(t *testing.T) {
	app, _ := newApp(t)
	cases := map[string]time.Duration{
		ViewItem:         446 * time.Millisecond,
		RegisterNewUser:  601 * time.Millisecond,
		BrowseCategories: 411 * time.Millisecond,
	}
	for comp, want := range cases {
		rb, err := app.Server.BeginMicroreboot(comp)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Duration() != want {
			t.Fatalf("%s µRB duration = %v, want %v", comp, rb.Duration(), want)
		}
		if err := app.Server.CompleteMicroreboot(rb); err != nil {
			t.Fatal(err)
		}
	}
	// EntityGroup: 36 + 789 = 825 ms.
	rb, err := app.Server.BeginMicroreboot(EntUser)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Duration() != 825*time.Millisecond {
		t.Fatalf("EntityGroup duration = %v, want 825ms", rb.Duration())
	}
	_ = app.Server.CompleteMicroreboot(rb)
	// Process restart: 19,083 ms.
	rb, err = app.Server.BeginScopedReboot(core.ScopeProcess, "")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Duration() != 19083*time.Millisecond {
		t.Fatalf("process restart duration = %v, want 19.083s", rb.Duration())
	}
	_ = app.Server.CompleteMicroreboot(rb)
}

func TestFastSLossBreaksSessionsSSMDoesNot(t *testing.T) {
	// FastS: process restart loses sessions.
	app, fs := newApp(t)
	login(t, app, "s1", 3)
	fs.LoseAll() // the process-restart effect
	if _, err := app.Execute(context.Background(), &core.Call{Op: AboutMe, SessionID: "s1"}); !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("err = %v, want ErrNotLoggedIn", err)
	}

	// SSM: survives process restarts by construction.
	d := db.New(nil)
	if err := LoadDataset(d, smallDataset()); err != nil {
		t.Fatal(err)
	}
	ssm, err := session.NewSSMCluster(session.ClusterConfig{Shards: 1, Replicas: 1, WriteQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	app2, err := New(d, ssm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app2.Execute(context.Background(), &core.Call{Op: Authenticate, SessionID: "s1", Args: &OpArgs{User: 3}}); err != nil {
		t.Fatal(err)
	}
	// Simulate process restart: SSM keeps its state (it is off-node).
	if _, err := app2.Execute(context.Background(), &core.Call{Op: AboutMe, SessionID: "s1"}); err != nil {
		t.Fatalf("AboutMe with SSM after restart: %v", err)
	}
}

func TestTxAbortedByMicroreboot(t *testing.T) {
	// A transaction left open by a component is rolled back by its µRB.
	app, _ := newApp(t)
	tx, err := app.DB.Begin()
	if err != nil {
		t.Fatal(err)
	}
	app.Server.RegisterTx(CommitBid, tx)
	rb, err := app.Server.Microreboot(CommitBid)
	if err != nil {
		t.Fatal(err)
	}
	if rb.AbortedTxs != 1 || !tx.Done() {
		t.Fatalf("AbortedTxs = %d, tx done = %v", rb.AbortedTxs, tx.Done())
	}
}

func TestCallPathTracing(t *testing.T) {
	app, _ := newApp(t)
	login(t, app, "s1", 3)
	call := &core.Call{Op: AboutMe, SessionID: "s1"}
	if _, err := app.Execute(context.Background(), call); err != nil {
		t.Fatal(err)
	}
	// Path must include WAR, the session component, and the entities.
	for _, want := range []string{WAR, AboutMe, EntUser, EntBid, BuyNow} {
		found := false
		for _, p := range call.Path {
			if p == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("path %v missing %s", call.Path, want)
		}
	}
}

func TestOpsMetadata(t *testing.T) {
	names := Operations()
	if len(names) != 22 {
		t.Fatalf("Operations() = %d ops, want 22", len(names))
	}
	for _, op := range names {
		info, ok := Info(op)
		if !ok {
			t.Fatalf("Info(%s) missing", op)
		}
		if info.Name != op {
			t.Fatalf("Info(%s).Name = %q", op, info.Name)
		}
		if info.Group == "" || info.Category == "" {
			t.Fatalf("%s missing group/category", op)
		}
		if len(info.Path) == 0 || info.Path[0] != WAR {
			t.Fatalf("%s path = %v, must start at WAR", op, info.Path)
		}
	}
	if !Touches(ViewItem, EntItem) {
		t.Fatal("ViewItem must touch Item")
	}
	// ViewItem touches Item; Item is in EntityGroup with Bid, so a Bid
	// µRB disturbs ViewItem.
	if !Touches(ViewItem, EntBid) {
		t.Fatal("EntityGroup expansion broken")
	}
	if Touches(OpHome, EntItem) {
		t.Fatal("Home must not touch entities")
	}
	if Touches("Ghost", WAR) {
		t.Fatal("unknown op should touch nothing")
	}
	if PathFor("Ghost") != nil {
		t.Fatal("unknown op should have nil path")
	}
}

func TestTable1CategoriesCovered(t *testing.T) {
	cats := map[string]bool{}
	for _, op := range Operations() {
		info, _ := Info(op)
		cats[info.Category] = true
	}
	for _, want := range []string{CatReadOnlyDB, CatSessionInit, CatStatic, CatSearch, CatSessionUpdate, CatDBUpdate} {
		if !cats[want] {
			t.Fatalf("no operation in category %q", want)
		}
	}
}

func TestDatasetScale(t *testing.T) {
	d := db.New(nil)
	cfg := smallDataset()
	if err := LoadDataset(d, cfg); err != nil {
		t.Fatal(err)
	}
	for tbl, want := range map[string]int{
		TblUsers:      cfg.Users,
		TblItems:      cfg.Items,
		TblCategories: cfg.Categories,
		TblRegions:    cfg.Regions,
		TblOldItems:   cfg.OldItems,
		TblBids:       cfg.Items * cfg.BidsPerItem / 10,
		TblIDSeq:      5,
	} {
		n, err := d.RowCount(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("%s rows = %d, want %d", tbl, n, want)
		}
	}
	// Default and paper datasets keep the paper's bids:items ratio.
	if DefaultDataset().BidsPerItem != PaperDataset().BidsPerItem {
		t.Fatal("scaled dataset changed the bids-per-item shape")
	}
}

func TestIdentityManagerSequential(t *testing.T) {
	app, _ := newApp(t)
	var prev int64
	for i := 0; i < 5; i++ {
		res, err := app.Server.Invoke(context.Background(), IdentityManager,
			&core.Call{Op: "next", Args: &EntityArgs{Kind: "bid"}})
		if err != nil {
			t.Fatal(err)
		}
		id := res.(int64)
		if i > 0 && id != prev+1 {
			t.Fatalf("ids not sequential: %d then %d", prev, id)
		}
		prev = id
	}
	// Sequence survives a µRB of the IdentityManager (durable in DB).
	if _, err := app.Server.Microreboot(IdentityManager); err != nil {
		t.Fatal(err)
	}
	res, err := app.Server.Invoke(context.Background(), IdentityManager,
		&core.Call{Op: "next", Args: &EntityArgs{Kind: "bid"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int64) != prev+1 {
		t.Fatalf("post-µRB id = %v, want %d", res, prev+1)
	}
}

// Concurrent id allocations must never hand out the same id twice. The
// store fails fast on a lock conflict, so some calls error; every id from
// a call that succeeded is distinct. Reading the counter without locking
// its row (a plain Get) loses updates and fails this test.
func TestIdentityManagerConcurrentIDsUnique(t *testing.T) {
	app, _ := newApp(t)
	const workers, calls = 8, 300
	var (
		mu   sync.Mutex
		seen = map[int64]int{}
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				res, err := app.Server.Invoke(context.Background(), IdentityManager,
					&core.Call{Op: "next", Args: &EntityArgs{Kind: "bid"}})
				if err != nil {
					continue
				}
				mu.Lock()
				seen[res.(int64)]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) == 0 {
		t.Fatal("no allocation succeeded")
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("id %d handed out %d times", id, n)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || fmt.Sprintf("%s", s) != "" && index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
