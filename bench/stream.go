package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/ebid"
	"repro/internal/sim"
	"repro/internal/workload"
)

// op is one generated request. The whole stream is built from the seed
// before any process starts; the servers see only these requests.
type op struct {
	user int32  // virtual user (its own cookie jar) issuing the request
	name string // eBid operation
	path string // request target, e.g. /ebid/ViewItem?item=17
	want string // a correct 200 body contains this
	// wantAlt is a second acceptable page. Only ViewItem has one: while the
	// entity group is rebooting, the component falls back to the sold-items
	// table and, for ids that exist there too, answers with that page. It
	// names the requested item, so it passes; it is counted separately.
	wantAlt string
	idem    bool  // ebid.Info(name).Idempotent: a 503 may be retried
	step2   bool  // second step of a flow; its first step is the user's previous op
	login   int64 // Authenticate: the dataset user logged in (re-login target)
	item    int64 // CommitBid: the item the bid lands on
}

// stream is a workload's request sequence in global issue order. Ops of
// one virtual user appear in the order that user must send them.
type stream struct {
	ops    []op
	vusers int
}

type dataset struct{ users, items int64 }

const (
	dsCategories = 20
	dsRegions    = 62
)

// vuserState follows what the server will hold for a virtual user, so each
// op's expected body can be fixed when the op is generated.
type vuserState struct {
	login    int64 // 0 after RegisterNewUser: the new id is the server's choice
	bidItem  int64
	buyItem  int64
	fbTarget int64
}

func mkOp(u int32, st *vuserState, name string, a ebid.OpArgs) op {
	info, ok := ebid.Info(name)
	if !ok {
		panic("bench: unknown operation " + name)
	}
	o := op{user: u, name: name, idem: info.Idempotent}
	q := ""
	switch name {
	case ebid.OpHome:
		o.want = "eBid home page"
	case ebid.OpBrowseMenu:
		o.want = "browse menu"
	case ebid.OpSellForm:
		o.want = "sell item form"
	case ebid.OpPutBidAuth:
		o.want = "please log in to bid"
	case ebid.OpLogout:
		o.want = "logged out"
	case ebid.Authenticate:
		q = "user=" + itoa(a.User)
		o.want = fmt.Sprintf("welcome user%d (user %d)", a.User, a.User)
		o.login = a.User
		st.login = a.User
	case ebid.RegisterNewUser:
		q = "region=" + itoa(a.Region)
		o.want = "<html>registered user "
		st.login = 0
	case ebid.BrowseCategories:
		o.want = " categories</html>"
	case ebid.BrowseRegions:
		o.want = " regions</html>"
	case ebid.ViewItem:
		q = "item=" + itoa(a.Item)
		o.want = fmt.Sprintf("<html>item %d: item-%d,", a.Item, a.Item)
		o.wantAlt = fmt.Sprintf("<html>old item %d: old-item-%d ", a.Item, a.Item)
	case ebid.ViewUserInfo:
		q = "user=" + itoa(a.User)
		o.want = fmt.Sprintf("<html>user %d (user%d), rating ", a.User, a.User)
	case ebid.ViewBidHistory:
		q = "item=" + itoa(a.Item)
		o.want = fmt.Sprintf("<html>item %d bid history: ", a.Item)
	case ebid.AboutMe:
		o.want = "<html>about user "
		if st.login > 0 {
			o.want = fmt.Sprintf("<html>about user %d (user%d): ", st.login, st.login)
		}
	case ebid.SearchItemsByCategory:
		q = "category=" + itoa(a.Category)
		o.want = fmt.Sprintf("<html>search category=%d: ", a.Category)
	case ebid.SearchItemsByRegion:
		q = "region=" + itoa(a.Region)
		o.want = fmt.Sprintf("<html>search region=%d: ", a.Region)
	case ebid.MakeBid:
		q = "item=" + itoa(a.Item)
		o.want = fmt.Sprintf("<html>bid form for item %d</html>", a.Item)
		st.bidItem = a.Item
	case ebid.CommitBid:
		// One decimal place keeps the server's query decoder on its typed
		// float path; an integer-looking amount is silently replaced by 1.
		q = "amount=" + strconv.FormatFloat(a.Amount, 'f', 1, 64)
		o.step2, o.item = true, st.bidItem
		o.want = fmt.Sprintf("<html>bid committed on item %d for %.2f</html>", st.bidItem, a.Amount)
	case ebid.DoBuyNow:
		q = "item=" + itoa(a.Item)
		o.want = fmt.Sprintf("<html>buy-now form for item %d</html>", a.Item)
		st.buyItem = a.Item
	case ebid.CommitBuyNow:
		o.step2 = true
		o.want = fmt.Sprintf("<html>purchase committed for item %d</html>", st.buyItem)
	case ebid.LeaveUserFeedback:
		q = "user=" + itoa(a.User)
		o.want = fmt.Sprintf("<html>feedback form for user %d</html>", a.User)
		st.fbTarget = a.User
	case ebid.CommitUserFeedback:
		q = "rating=" + itoa(a.Rating)
		o.step2 = true
		o.want = fmt.Sprintf("<html>feedback committed for user %d</html>", st.fbTarget)
	case ebid.RegisterNewItem:
		q = "category=" + itoa(a.Category)
		o.step2 = true // follows SellForm
		o.want = "<html>registered item "
	default:
		panic("bench: no request builder for " + name)
	}
	o.path = "/ebid/" + name
	if q != "" {
		o.path += "?" + q
	}
	return o
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// genBrowse is the read-only browse mix with Zipf item popularity. Users
// never log in; each still carries the cookie the server hands it.
func genBrowse(seed int64, n, vusers int, ds dataset) *stream {
	rng := rand.New(rand.NewSource(seed))
	// rand.Zipf needs s > 1; 1.01 is the "≈ 1.0" of the workload table.
	zipf := rand.NewZipf(rng, 1.01, 1, uint64(ds.items-1))
	// Popularity rank → item id through a seeded permutation, so the hot
	// set is scattered over the table instead of being ids 1..k.
	perm := rng.Perm(int(ds.items))
	item := func() int64 { return int64(perm[zipf.Uint64()]) + 1 }
	states := make([]vuserState, vusers)
	s := &stream{vusers: vusers, ops: make([]op, 0, n)}
	for len(s.ops) < n {
		u := int32(rng.Intn(vusers))
		var o op
		switch x := rng.Intn(100); {
		case x < 40:
			o = mkOp(u, &states[u], ebid.ViewItem, ebid.OpArgs{Item: item()})
		case x < 55:
			o = mkOp(u, &states[u], ebid.ViewBidHistory, ebid.OpArgs{Item: item()})
		case x < 70:
			o = mkOp(u, &states[u], ebid.ViewUserInfo, ebid.OpArgs{User: 1 + rng.Int63n(ds.users)})
		case x < 80:
			o = mkOp(u, &states[u], ebid.SearchItemsByCategory, ebid.OpArgs{Category: 1 + rng.Int63n(dsCategories)})
		case x < 90:
			o = mkOp(u, &states[u], ebid.BrowseCategories, ebid.OpArgs{})
		default:
			o = mkOp(u, &states[u], ebid.OpHome, ebid.OpArgs{})
		}
		s.ops = append(s.ops, o)
	}
	return s
}

// bidLoop is the fixed per-user script of the session- and write-heavy
// workload; every step but ViewItem touches the session store and four of
// the ten commit a transaction or write session state.
var bidLoop = []string{
	ebid.Authenticate, ebid.MakeBid, ebid.CommitBid, ebid.MakeBid, ebid.CommitBid,
	ebid.AboutMe, ebid.LeaveUserFeedback, ebid.CommitUserFeedback, ebid.ViewItem, ebid.OpLogout,
}

// genBid interleaves vusers users that each repeat bidLoop, logging in as
// a fresh random dataset user each round so bids and feedback spread over
// the whole dataset.
func genBid(seed int64, n, vusers int, ds dataset) *stream {
	rng := rand.New(rand.NewSource(seed))
	states := make([]vuserState, vusers)
	pos := make([]int, vusers)
	s := &stream{vusers: vusers, ops: make([]op, 0, n)}
	for len(s.ops) < n {
		u := int32(rng.Intn(vusers))
		name := bidLoop[pos[u]]
		pos[u] = (pos[u] + 1) % len(bidLoop)
		a := ebid.OpArgs{
			User:   1 + rng.Int63n(ds.users),
			Item:   1 + rng.Int63n(ds.items),
			Amount: float64(1 + rng.Intn(500)),
			Rating: int64(rng.Intn(11) - 5),
		}
		s.ops = append(s.ops, mkOp(u, &states[u], name, a))
	}
	return s
}

// recordingFrontend completes every request at once and keeps it: it
// turns the repo's own client emulator into a request generator.
type recordingFrontend struct {
	reqs []*workload.Request
}

func (f *recordingFrontend) Submit(req *workload.Request) {
	f.reqs = append(f.reqs, req)
	req.Complete(workload.Response{Body: "ok"})
}

// genMix produces the paper's Table 1 mix by running workload.Emulator on
// a simulation kernel against a frontend that only records, so the Markov
// chain is the repo's own. Virtual think times are dropped; the order in
// which the emulated users clicked is kept.
func genMix(seed int64, n, vusers int, ds dataset) *stream {
	k := sim.NewKernel(seed)
	fe := &recordingFrontend{}
	em := workload.NewEmulator(k, fe, nil, workload.Config{
		Clients: vusers, Users: ds.users, Items: ds.items,
		Categories: dsCategories, Regions: dsRegions,
	})
	em.Start()
	for len(fe.reqs) < n && k.Step() {
	}
	em.Stop()
	states := make([]vuserState, vusers)
	s := &stream{vusers: vusers, ops: make([]op, 0, n)}
	for _, r := range fe.reqs[:min(n, len(fe.reqs))] {
		var a ebid.OpArgs
		if oa, ok := r.Args.(*ebid.OpArgs); ok && oa != nil {
			a = *oa
		}
		s.ops = append(s.ops, mkOp(int32(r.ClientID), &states[r.ClientID], r.Op, a))
	}
	return s
}

// poissonArrivals returns the intended send offsets of an open-loop phase:
// a Poisson process of the given rate, cut off at horizon. The schedule
// depends only on the seed, never on how fast the system answers.
func poissonArrivals(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0a11))
	out := make([]time.Duration, 0, int(rate*horizon.Seconds()*1.05)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon || math.IsInf(t, 0) {
			return out
		}
		out = append(out, d)
	}
}
