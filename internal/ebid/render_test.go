package ebid

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/store/db"
)

// fresh is a renderer outside any call, and str its body.
func fresh() *renderBuf          { return new(renderBuf) }
func (r *renderBuf) str() string { return string(*r) }

// TestRenderGoldenBodies proves the renderer produces bodies
// byte-identical to the fmt.Sprintf formats it replaced, for every op
// body shape — including corrupted column values, where the fmt fallback
// must reproduce the exact "%!s(...)"-style noise the comparison
// detector keys on — and that every op's body, as Execute returns it,
// is that format over the rows the op read. The detect.Sampler diffs
// live bodies against a shadow replica, so any drift here would read as
// divergence.
func TestRenderGoldenBodies(t *testing.T) {
	// Column values as they arrive from db.Row: schema types plus the
	// shapes corruption produces (nil, wrong types).
	anyVals := []any{"alice", "", "item-1", int64(0), int64(-3), nil, 3.5, true}
	intIDs := []int64{0, 1, 7, -2, 1 << 40}
	floats := []float64{0, 0.004, 0.005, 1, 123.456, -0.0049, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	counts := []int{0, 1, 10, 62}

	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}

	for _, nick := range anyVals {
		for _, id := range intIDs {
			check("welcome",
				fresh().s("<html>welcome ").anyS(nick).s(" (user ").i(id).s(")</html>").str(),
				fmt.Sprintf("<html>welcome %s (user %d)</html>", nick, id))
			for _, nb := range counts {
				check("aboutme",
					fresh().s("<html>about user ").i(id).s(" (").anyS(nick).
						s("): ").n(nb).s(" bids, ").n(nb+1).s(" buys</html>").str(),
					fmt.Sprintf("<html>about user %d (%s): %d bids, %d buys</html>", id, nick, nb, nb+1))
			}
		}
	}

	for _, nb := range counts {
		check("categories",
			fresh().s("<html>").n(nb).s(" categories</html>").str(),
			fmt.Sprintf("<html>%d categories</html>", nb))
		check("regions",
			fresh().s("<html>").n(nb).s(" regions</html>").str(),
			fmt.Sprintf("<html>%d regions</html>", nb))
	}

	for _, id := range intIDs {
		for _, nb := range counts {
			check("search",
				fresh().s("<html>search ").s("category").s("=").i(id).s(": ").n(nb).s(" items</html>").str(),
				fmt.Sprintf("<html>search %s=%d: %d items</html>", "category", id, nb))
			check("bidhistory",
				fresh().s("<html>item ").i(id).s(" bid history: ").n(nb).s(" bids</html>").str(),
				fmt.Sprintf("<html>item %d bid history: %d bids</html>", id, nb))
		}
	}

	// ViewItem / old item: any-typed name, %.2f price, %d bid count.
	for _, name := range anyVals {
		for _, price := range floats {
			check("olditem",
				fresh().s("<html>old item ").i(9).s(": ").anyS(name).
					s(" sold at ").anyF2(price).s("</html>").str(),
				fmt.Sprintf("<html>old item %d: %s sold at %.2f</html>", int64(9), name, price))
			for _, nbids := range anyVals {
				check("viewitem",
					fresh().s("<html>item ").i(9).s(": ").anyS(name).
						s(", max bid ").anyF2(price).s(", ").anyI(nbids).s(" bids</html>").str(),
					fmt.Sprintf("<html>item %d: %s, max bid %.2f, %d bids</html>", int64(9), name, price, nbids))
			}
		}
	}

	// Corrupted max_bid (non-float) must render the same fmt noise.
	for _, bad := range anyVals {
		check("viewitem-corrupt",
			fresh().s("<html>item ").i(1).s(": ").anyS(bad).
				s(", max bid ").anyF2(bad).s(", ").anyI(bad).s(" bids</html>").str(),
			fmt.Sprintf("<html>item %d: %s, max bid %.2f, %d bids</html>", int64(1), bad, bad, bad))
	}

	for _, nick := range anyVals {
		for _, rating := range anyVals {
			check("viewuser",
				fresh().s("<html>user ").i(3).s(" (").anyS(nick).
					s("), rating ").anyI(rating).s(", ").n(2).s(" comments</html>").str(),
				fmt.Sprintf("<html>user %d (%s), rating %d, %d comments</html>", int64(3), nick, rating, 2))
		}
	}

	for _, id := range intIDs {
		check("bidform",
			fresh().s("<html>bid form for item ").i(id).s("</html>").str(),
			fmt.Sprintf("<html>bid form for item %d</html>", id))
		for _, amount := range floats {
			check("bidcommit",
				fresh().s("<html>bid committed on item ").i(id).s(" for ").f2(amount).s("</html>").str(),
				fmt.Sprintf("<html>bid committed on item %d for %.2f</html>", id, amount))
		}
		check("buynowform",
			fresh().s("<html>buy-now form for item ").i(id).s("</html>").str(),
			fmt.Sprintf("<html>buy-now form for item %d</html>", id))
		check("buynowcommit",
			fresh().s("<html>purchase committed for item ").i(id).s("</html>").str(),
			fmt.Sprintf("<html>purchase committed for item %d</html>", id))
		check("fbform",
			fresh().s("<html>feedback form for user ").i(id).s("</html>").str(),
			fmt.Sprintf("<html>feedback form for user %d</html>", id))
		check("fbcommit",
			fresh().s("<html>feedback committed for user ").i(id).s("</html>").str(),
			fmt.Sprintf("<html>feedback committed for user %d</html>", id))
		check("reguser",
			fresh().s("<html>registered user ").i(id).s("</html>").str(),
			fmt.Sprintf("<html>registered user %d</html>", id))
		check("regitem",
			fresh().s("<html>registered item ").i(id).s("</html>").str(),
			fmt.Sprintf("<html>registered item %d</html>", id))
	}

	t.Run("Execute", testExecuteGoldenBodies)
}

// testExecuteGoldenBodies runs every operation through App.Execute and
// compares its body with the fmt.Sprintf format over the rows it read:
// reads, writes, the WAR's static pages, Logout, and a fault's fabricated
// page (a string as it is, any other result as fmt.Sprint formats it).
func testExecuteGoldenBodies(t *testing.T) {
	app, _ := newApp(t)
	row := func(table string, key int64) db.Row {
		t.Helper()
		tx, _ := app.DB.Begin()
		defer tx.Abort()
		r, err := tx.Get(table, key)
		if err != nil {
			t.Fatalf("Get(%s, %d): %v", table, key, err)
		}
		return r
	}
	count := func(table, col string, val int64) int {
		t.Helper()
		tx, _ := app.DB.Begin()
		defer tx.Abort()
		keys, err := tx.Lookup(table, col, val)
		if err != nil {
			t.Fatalf("Lookup(%s.%s): %v", table, col, err)
		}
		return len(keys)
	}
	rows := func(table string, limit int) int {
		n, _ := app.DB.RowCount(table)
		return min(n, limit)
	}
	maxKey := func(table string) int64 {
		tx, _ := app.DB.Begin()
		defer tx.Abort()
		var top int64
		_ = tx.Scan(table, func(k int64, _ db.Row) bool { top = max(top, k); return true })
		return top
	}
	var fabricated any
	app.Server.Use(func(ctx context.Context, call *core.Call, next core.Handler) (any, error) {
		if fabricated != nil && call.Component == ViewItem {
			return fabricated, nil
		}
		return next(ctx, call)
	})
	run := func(op, sid string, args *OpArgs, want func() string) {
		t.Helper()
		body, err := app.Execute(context.Background(), &core.Call{Op: op, SessionID: sid, Args: args})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if w := want(); string(body) != w {
			t.Errorf("%s:\n got %q\nwant %q", op, body, w)
		}
	}
	lit := func(s string) func() string { return func() string { return s } }

	run(OpHome, "", nil, lit("<html>eBid home page</html>"))
	run(OpBrowseMenu, "", nil, lit("<html>browse menu</html>"))
	run(OpSellForm, "", nil, lit("<html>sell item form</html>"))
	run(OpPutBidAuth, "", nil, lit("<html>please log in to bid</html>"))
	run(Authenticate, "g", &OpArgs{User: 3}, func() string {
		return fmt.Sprintf("<html>welcome %s (user %d)</html>", row(TblUsers, 3)["nickname"], int64(3))
	})
	run(BrowseCategories, "", nil, func() string {
		return fmt.Sprintf("<html>%d categories</html>", rows(TblCategories, 20))
	})
	run(BrowseRegions, "", nil, func() string {
		return fmt.Sprintf("<html>%d regions</html>", rows(TblRegions, 62))
	})
	run(ViewItem, "", &OpArgs{Item: 3}, func() string {
		r := row(TblItems, 3)
		return fmt.Sprintf("<html>item %d: %s, max bid %.2f, %d bids</html>", int64(3), r["name"], r["max_bid"], r["nb_bids"])
	})
	run(ViewUserInfo, "", &OpArgs{User: 2}, func() string {
		r := row(TblUsers, 2)
		return fmt.Sprintf("<html>user %d (%s), rating %d, %d comments</html>", int64(2), r["nickname"], r["rating"], count(TblFeedback, "to_user", 2))
	})
	run(ViewBidHistory, "", &OpArgs{Item: 4}, func() string {
		return fmt.Sprintf("<html>item %d bid history: %d bids</html>", int64(4), count(TblBids, "item", 4))
	})
	run(SearchItemsByCategory, "", &OpArgs{Category: 2}, func() string {
		return fmt.Sprintf("<html>search %s=%d: %d items</html>", "category", int64(2), count(TblItems, "category", 2))
	})
	run(SearchItemsByRegion, "", &OpArgs{Region: 1}, func() string {
		return fmt.Sprintf("<html>search %s=%d: %d items</html>", "region", int64(1), count(TblItems, "region", 1))
	})
	run(MakeBid, "g", &OpArgs{Item: 4}, lit(fmt.Sprintf("<html>bid form for item %d</html>", int64(4))))
	run(CommitBid, "g", &OpArgs{Amount: 12.5}, lit(fmt.Sprintf("<html>bid committed on item %d for %.2f</html>", int64(4), 12.5)))
	run(DoBuyNow, "g", &OpArgs{Item: 6}, lit(fmt.Sprintf("<html>buy-now form for item %d</html>", int64(6))))
	run(CommitBuyNow, "g", nil, lit(fmt.Sprintf("<html>purchase committed for item %d</html>", int64(6))))
	run(LeaveUserFeedback, "g", &OpArgs{User: 5}, lit(fmt.Sprintf("<html>feedback form for user %d</html>", int64(5))))
	run(CommitUserFeedback, "g", &OpArgs{Rating: 2, HasRating: true}, lit(fmt.Sprintf("<html>feedback committed for user %d</html>", int64(5))))
	run(AboutMe, "g", nil, func() string {
		return fmt.Sprintf("<html>about user %d (%s): %d bids, %d buys</html>", int64(3), row(TblUsers, 3)["nickname"],
			count(TblBids, "user", 3), count(TblBuys, "user", 3))
	})
	run(RegisterNewItem, "g", &OpArgs{Category: 1}, func() string {
		return fmt.Sprintf("<html>registered item %d</html>", maxKey(TblItems))
	})
	run(OpLogout, "g", nil, lit("<html>logged out</html>"))
	run(RegisterNewUser, "g2", &OpArgs{Region: 2}, func() string {
		return fmt.Sprintf("<html>registered user %d</html>", maxKey(TblUsers))
	})

	tx, _ := app.DB.Begin()
	if err := tx.Delete(TblItems, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	run(ViewItem, "", &OpArgs{Item: 5}, func() string {
		r := row(TblOldItems, 5)
		return fmt.Sprintf("<html>old item %d: %s sold at %.2f</html>", int64(5), r["name"], r["final_price"])
	})

	// The CorruptSessionAttrs/ModeWrong page, and a result no op returns.
	fabricated = "<html>item 1: gadget, max bid 0.01, 1 bids</html>"
	run(ViewItem, "", &OpArgs{Item: 3}, lit(fmt.Sprint(fabricated)))
	fabricated = int64(7)
	run(ViewItem, "", &OpArgs{Item: 3}, lit(fmt.Sprint(fabricated)))
}

// BenchmarkRenderItemBody measures the formatting path alone, into a
// call's body buffer reused from one request to the next: this must be
// 0 allocs/op.
func BenchmarkRenderItemBody(b *testing.B) {
	name, maxBid, nbBids := any("gadget"), any(123.45), any(int64(17))
	var call core.Call
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		call.Body = call.Body[:0]
		page(&call).s("<html>item ").i(7).s(": ").anyS(name).
			s(", max bid ").anyF2(maxBid).s(", ").anyI(nbBids).s(" bids</html>")
	}
}

// BenchmarkRenderItemBodyFmt is the fmt.Sprintf formatting this replaced,
// kept as the comparison point.
func BenchmarkRenderItemBodyFmt(b *testing.B) {
	name, maxBid, nbBids := any("gadget"), any(123.45), any(int64(17))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fmt.Sprintf("<html>item %d: %s, max bid %.2f, %d bids</html>", int64(7), name, maxBid, nbBids)
	}
}
