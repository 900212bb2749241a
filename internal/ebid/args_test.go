package ebid

import (
	"context"
	"math"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestOpArgsReachEveryOp walks one session through every
// argument-carrying end-user operation on the typed codec and checks that
// each argument reached its component: the session components default a
// missing argument rather than fail, so only the page (or, for ratings,
// the stored user row) shows whether it arrived.
func TestOpArgsReachEveryOp(t *testing.T) {
	app, _ := newApp(t)
	steps := []struct {
		op   string
		args *OpArgs
		want string
	}{
		{Authenticate, &OpArgs{User: 3}, "(user 3)"},
		{AboutMe, nil, "about user 3"},
		{BrowseCategories, nil, "categories"},
		{BrowseRegions, nil, "regions"},
		{ViewItem, &OpArgs{Item: 7}, "item 7: "},
		{ViewUserInfo, &OpArgs{User: 2}, "user 2 ("},
		{ViewBidHistory, &OpArgs{Item: 5}, "item 5 bid history"},
		{SearchItemsByCategory, &OpArgs{Category: 2}, "search category=2: "},
		{SearchItemsByRegion, &OpArgs{Region: 3}, "search region=3: "},
		{MakeBid, &OpArgs{Item: 9}, "bid form for item 9"},
		{CommitBid, &OpArgs{Amount: 42.5}, "item 9 for 42.50"},
		{DoBuyNow, &OpArgs{Item: 11}, "buy-now form for item 11"},
		{CommitBuyNow, nil, "purchase committed for item 11"},
		{LeaveUserFeedback, &OpArgs{User: 4}, "feedback form for user 4"},
		// Rating zero and negative are legal values: presence must come
		// from HasRating, not from the value being non-zero (an absent
		// rating defaults to +1).
		{CommitUserFeedback, &OpArgs{Rating: 0, HasRating: true}, "feedback committed for user 4"},
		{LeaveUserFeedback, &OpArgs{User: 5}, "feedback form for user 5"},
		{CommitUserFeedback, &OpArgs{Rating: -5, HasRating: true}, "feedback committed for user 5"},
		{RegisterNewItem, &OpArgs{Category: 1}, "registered item "},
		{RegisterNewUser, &OpArgs{Region: 2}, "registered user "},
		{OpLogout, nil, "logged out"},
	}
	before := map[int64]int64{4: userRating(t, app, 4), 5: userRating(t, app, 5)}
	const sid = "codec-sess"
	for _, st := range steps {
		body, err := app.Execute(context.Background(), &core.Call{Op: st.op, SessionID: sid, Args: st.args})
		if err != nil {
			t.Fatalf("%s: %v", st.op, err)
		}
		if !strings.Contains(string(body), st.want) {
			t.Fatalf("%s: body %q lacks %q", st.op, body, st.want)
		}
	}
	for user, delta := range map[int64]int64{4: 0, 5: -5} {
		if got := userRating(t, app, user) - before[user]; got != delta {
			t.Fatalf("user %d rating moved by %d, want %d", user, got, delta)
		}
	}
}

func userRating(t *testing.T, app *App, user int64) int64 {
	t.Helper()
	tx, err := app.DB.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	row, err := tx.Get(TblUsers, user)
	if err != nil {
		t.Fatal(err)
	}
	return row["rating"].(int64)
}

// TestOpArgsMissingBehavesLikeNil checks the zero-value-means-absent
// contract: an op invoked with a zero OpArgs, or with a nil *OpArgs, must
// behave exactly like one invoked with nil args (the session components'
// defaulting kicks in for all three), not read the zero values as real
// arguments or dereference the nil pointer.
func TestOpArgsMissingBehavesLikeNil(t *testing.T) {
	app, _ := newApp(t)
	for _, op := range []string{ViewItem, ViewUserInfo, ViewBidHistory, SearchItemsByCategory, SearchItemsByRegion} {
		bodyNil, errNil := app.Execute(context.Background(), &core.Call{Op: op})
		for _, args := range []*OpArgs{{}, nil} {
			body, err := app.Execute(context.Background(), &core.Call{Op: op, Args: args})
			if (err == nil) != (errNil == nil) {
				t.Fatalf("%s(%#v): err=%v, nil-args err=%v", op, args, err, errNil)
			}
			if string(body) != string(bodyNil) {
				t.Fatalf("%s(%#v): body %q != nil-args body %q", op, args, body, bodyNil)
			}
		}
	}
	// An entity hop with a nil *EntityArgs reads every argument absent.
	_, err := app.Server.Invoke(context.Background(), EntItem, &core.Call{Op: opLoad, Args: (*EntityArgs)(nil)})
	if err == nil || !strings.Contains(err.Error(), "missing key") {
		t.Fatalf("load with nil *EntityArgs: err = %v, want missing key", err)
	}
}

func TestOpArgsSetString(t *testing.T) {
	oa := &OpArgs{}
	cases := map[string]string{
		"user": "3", "item": "9", "category": "2", "region": "4",
		"amount": "12.5", "rating": "-3",
	}
	for k, v := range cases {
		if !oa.SetString(k, v) {
			t.Fatalf("SetString(%s, %s) rejected", k, v)
		}
	}
	if oa.User != 3 || oa.Item != 9 || oa.Category != 2 || oa.Region != 4 {
		t.Fatalf("int fields = %+v", oa)
	}
	if oa.Amount != 12.5 || oa.Rating != -3 || !oa.HasRating {
		t.Fatalf("amount/rating = %+v", oa)
	}
	if oa.SetString("user", "notanumber") {
		t.Fatal("bad int accepted")
	}
	if oa.SetString("flavor", "vanilla") {
		t.Fatal("unknown key accepted")
	}
}

// FuzzOpArgsSetString: SetString never panics; an accepted key sets
// exactly its own field to what strconv parses (and "rating" also sets
// HasRating); "amount" accepts only finite values; a rejected key or
// value leaves the codec unchanged. The checked-in corpus holds the
// amount=37 query that was once recorded as a 1.00 bid.
func FuzzOpArgsSetString(f *testing.F) {
	for _, kv := range [][2]string{
		{"amount", "37"}, {"amount", "10.5"}, {"item", "9"}, {"rating", "-3"},
		{"rating", "0"}, {"user", "notanumber"}, {"flavor", "vanilla"},
		{"region", "9223372036854775808"}, {"amount", "NaN"}, {"", ""},
	} {
		f.Add(kv[0], kv[1])
	}
	f.Fuzz(func(t *testing.T, key, val string) {
		start := OpArgs{User: 11, Item: 12, Category: 13, Region: 14, Amount: 15.5, Rating: 16}
		got := start
		ok := got.SetString(key, val)
		want, accept := start, false
		ints := map[string]*int64{"user": &want.User, "item": &want.Item,
			"category": &want.Category, "region": &want.Region, "rating": &want.Rating}
		if field, isInt := ints[key]; isInt {
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				*field, want.HasRating, accept = n, key == "rating", true
			}
		} else if key == "amount" {
			if x, err := strconv.ParseFloat(val, 64); err == nil && !math.IsNaN(x) && !math.IsInf(x, 0) {
				want.Amount, accept = x, true
			}
		}
		if ok != accept {
			t.Fatalf("SetString(%q, %q) = %v, want %v", key, val, ok, accept)
		}
		if got != want {
			t.Fatalf("SetString(%q, %q): codec %+v, want %+v", key, val, got, want)
		}
	})
}

// FuzzDecodeArgs is the differential check of SetQuery: for any query,
// the codec it fills equals the one that url.ParseQuery followed by
// SetString(key, values[0]) for each key fills.
func FuzzDecodeArgs(f *testing.F) {
	for _, q := range []string{
		"item=7", "user=3&item=9&category=2&region=4&rating=-1&amount=12.5",
		"item=%37", "item=x&item=8", "item=8&item=9", "item=%zz&item=5",
		"amount=1+2", "amount=%2B3", "it%65m=4", "item=4;region=2&region=3",
		"&&item=&=5&item", "rating=0&rating=2", "amount=NaN&amount=3",
		"item=6#frag", "item=?6&user=1?", "ite+m=3", "",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, query string) {
		var got, want OpArgs
		got.SetQuery(query)
		vals, _ := url.ParseQuery(query)
		for k, v := range vals {
			want.SetString(k, v[0])
		}
		if got != want {
			t.Fatalf("SetQuery(%q) = %+v, url.ParseQuery gives %+v", query, got, want)
		}
	})
}

// TestReleasedCallNotPooledWhenKilled guards the pooling invariant: a
// call retained by a kill (it lives on in Reboot.KilledCalls) must refuse
// Release so it is never recycled under the microreboot bookkeeping.
func TestReleasedCallNotPooledWhenKilled(t *testing.T) {
	call := core.NewCall("op", "s", nil, 0)
	call.Kill()
	if call.Release() {
		t.Fatal("killed call accepted Release")
	}
	fresh := core.NewCall("op2", "s", nil, 0)
	if !fresh.Release() {
		t.Fatal("fresh unkilled call refused Release")
	}
}
