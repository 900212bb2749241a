package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ebid"
)

// stub is a scripted server: script decides each response from the op name
// and how many times that op has been asked for.
type stub struct {
	mu     sync.Mutex
	asked  map[string]int
	script func(op string, nth int, w http.ResponseWriter, r *http.Request) bool
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, "/ebid/")
	s.mu.Lock()
	if s.asked == nil {
		s.asked = map[string]int{}
	}
	s.asked[op]++
	nth := s.asked[op]
	s.mu.Unlock()
	if s.script != nil && s.script(op, nth, w, r) {
		return
	}
	// A page that satisfies any generated op for user 5 / item 9.
	switch op {
	case ebid.OpHome:
		fmt.Fprint(w, "<html>eBid home page</html>")
	case ebid.Authenticate:
		fmt.Fprint(w, "<html>welcome user5 (user 5)</html>")
	case ebid.MakeBid:
		fmt.Fprint(w, "<html>bid form for item 9</html>")
	case ebid.CommitBid:
		fmt.Fprint(w, "<html>bid committed on item 9 for 3.00</html>")
	case ebid.AboutMe:
		fmt.Fprint(w, "<html>about user 5 (user5): 1 bids, 0 buys</html>")
	case ebid.ViewItem:
		fmt.Fprintf(w, "<html>item %s: item-%s, max bid 1.00, 11 bids</html>", r.URL.Query().Get("item"), r.URL.Query().Get("item"))
	}
}

func (s *stub) count(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.asked[op]
}

// script builds a one-user stream from op names, for user 5 and item 9.
func script(names ...string) *stream {
	st := &stream{vusers: 1}
	var state vuserState
	for _, n := range names {
		st.ops = append(st.ops, mkOp(0, &state, n, ebid.OpArgs{User: 5, Item: 9, Amount: 3}))
	}
	return st
}

func runScript(t *testing.T, s *stub, st *stream) (*loadRun, phaseStats) {
	t.Helper()
	srv := httptest.NewServer(s)
	defer srv.Close()
	lr := &loadRun{target: strings.TrimPrefix(srv.URL, "http://"), st: st, to: len(st.ops), conns: 1, users: make([]vuser, st.vusers)}
	lr.run()
	return lr, reduce(lr.res, 0, time.Hour, time.Hour)
}

func TestRetryAfterIsHonouredOnlyWhenIdempotent(t *testing.T) {
	refuseOnce := func(op string, nth int, w http.ResponseWriter, r *http.Request) bool {
		if nth == 1 && (op == ebid.ViewItem || op == ebid.MakeBid) {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "component recovering: "+op, http.StatusServiceUnavailable)
			return true
		}
		return false
	}
	s := &stub{script: refuseOnce}
	_, p := runScript(t, s, script(ebid.ViewItem, ebid.MakeBid, ebid.CommitBid, ebid.OpHome))
	// ViewItem is idempotent: reissued and masked. MakeBid is not: failed at
	// once, and its CommitBid is failed with it without being sent.
	if p.sent != 4 || p.ok != 2 || p.masked != 1 || p.failed != 2 || p.skipped != 1 || p.firstFailed != 3 {
		t.Errorf("%+v", p)
	}
	if s.count(ebid.ViewItem) != 2 || s.count(ebid.MakeBid) != 1 || s.count(ebid.CommitBid) != 0 {
		t.Errorf("requests seen: %v", s.asked)
	}

	// Refused every time, an idempotent op is given up after 3 reissues.
	s = &stub{script: func(op string, nth int, w http.ResponseWriter, r *http.Request) bool {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "component recovering", http.StatusServiceUnavailable)
		return true
	}}
	_, p = runScript(t, s, script(ebid.ViewItem))
	if p.failed != 1 || s.count(ebid.ViewItem) != 1+maxRetryAfter {
		t.Errorf("gave up after %d requests: %+v", s.count(ebid.ViewItem), p)
	}
}

func TestSessionLossIsAnsweredByLoggingInAgain(t *testing.T) {
	s := &stub{script: func(op string, nth int, w http.ResponseWriter, r *http.Request) bool {
		if op == ebid.AboutMe && nth == 1 {
			http.Error(w, "session lapsed", http.StatusUnauthorized)
			return true
		}
		return false
	}}
	lr, p := runScript(t, s, script(ebid.Authenticate, ebid.AboutMe))
	if p.ok != 2 || p.relogins != 1 || p.masked != 1 || s.count(ebid.Authenticate) != 2 || s.count(ebid.AboutMe) != 2 {
		t.Errorf("%+v, requests %v", p, s.asked)
	}
	// The user had logged in, so this 401 is a lost session — the
	// observation the microreboot phase must never make.
	if lostSessionsBefore(lr.res, time.Hour) != 1 {
		t.Error("a 401 to a logged-in user was not counted as a lost session")
	}
	if v := checkSessionsSurvive(lr.res, time.Hour); len(v) != 1 {
		t.Errorf("checker did not fire: %v", v)
	}
	if v := checkSessionsSurvive(lr.res, 0); len(v) != 0 {
		t.Errorf("checker fired for a 401 after the first restart: %v", v)
	}
}

func TestLockConflictIsReissued(t *testing.T) {
	s := &stub{script: func(op string, nth int, w http.ResponseWriter, r *http.Request) bool {
		if op == ebid.CommitBid && nth <= 2 {
			http.Error(w, "db: lock conflict: row 4 of id_seq held by tx 7", http.StatusInternalServerError)
			return true
		}
		return false
	}}
	ledger := &bidLedger{acked: map[int64]int{}, tried: map[int64]int{}}
	srv := httptest.NewServer(s)
	defer srv.Close()
	st := script(ebid.MakeBid, ebid.CommitBid)
	lr := &loadRun{target: strings.TrimPrefix(srv.URL, "http://"), st: st, to: 2, conns: 1, users: make([]vuser, 1), ledger: ledger}
	lr.run()
	p := reduce(lr.res, 0, time.Hour, time.Hour)
	// Conflict reissues are the store's own retry: the op still counts as
	// answered on its first attempt.
	if p.ok != 2 || p.conflicts != 1 || p.firstFailed != 0 || s.count(ebid.CommitBid) != 3 {
		t.Errorf("%+v, requests %v", p, s.asked)
	}
	if ledger.acked[9] != 1 || ledger.tried[9] != 1 {
		t.Errorf("ledger: acked %v tried %v", ledger.acked, ledger.tried)
	}
}

func TestWrongPageIsAFailureAndAViolation(t *testing.T) {
	s := &stub{script: func(op string, nth int, w http.ResponseWriter, r *http.Request) bool {
		if op == ebid.ViewItem {
			fmt.Fprint(w, "<html>item 10: item-10, max bid 1.00, 11 bids</html>") // asked for item 9
			return true
		}
		return false
	}}
	_, p := runScript(t, s, script(ebid.ViewItem))
	if p.failed != 1 || p.badBody != 1 {
		t.Errorf("%+v", p)
	}
	if v := checkBodies(p); len(v) != 1 {
		t.Errorf("checker did not fire: %v", v)
	}
	if v := checkBodies(phaseStats{}); len(v) != 0 {
		t.Errorf("checker fired on a clean phase: %v", v)
	}
}

// The coordinated-omission guard. One request stalls for 200 ms. In the
// open loop the ops that fell due meanwhile were already late when they
// were sent, and their latency says so; in the closed loop nothing was due,
// so only the stalled op is slow. A generator that timed from the actual
// send would report the second picture for both.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "<html>eBid home page</html>")
	})
	names := make([]string, 200)
	for i := range names {
		names[i] = ebid.OpHome
	}
	st := script(names...)
	slow := func(due []time.Duration) int {
		n.Store(0)
		srv := httptest.NewServer(handler)
		defer srv.Close()
		lr := &loadRun{target: strings.TrimPrefix(srv.URL, "http://"), st: st, to: len(st.ops), due: due, conns: 1, users: make([]vuser, 1)}
		lr.run()
		count := 0
		for _, r := range lr.res {
			if r.done-r.due > stall/4 {
				count++
			}
		}
		return count
	}
	due := make([]time.Duration, len(st.ops)) // one op every 2 ms
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	if got := slow(due); got < 50 {
		t.Errorf("open loop: %d ops report the stall; want the ~75 that were due during it", got)
	}
	if got := slow(nil); got != 1 {
		t.Errorf("closed loop: %d ops report the stall, want only the stalled one", got)
	}
}

func TestUntilCutsAnOpenLoopShort(t *testing.T) {
	srv := httptest.NewServer(&stub{})
	defer srv.Close()
	st := script(ebid.OpHome, ebid.OpHome, ebid.OpHome)
	due := []time.Duration{0, time.Millisecond, time.Hour}
	lr := &loadRun{target: strings.TrimPrefix(srv.URL, "http://"), st: st, to: 3, due: due, conns: 1, users: make([]vuser, 1)}
	lr.begin()
	done := make(chan struct{})
	go func() { lr.drive(); close(done) }()
	time.Sleep(30 * time.Millisecond)
	lr.stopAfter()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("the loop did not end after stopAfter")
	}
	if p := reduce(lr.res, 0, 2*time.Hour, time.Hour); p.sent != 2 || p.ok != 2 {
		t.Errorf("%+v", p)
	}
}
