package main

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ebid"
)

// Client retry policy (paper §6.2 and the crash-only contract).
const (
	maxRetryAfter = 3  // 503 + Retry-After reissues per idempotent op
	maxConflicts  = 16 // reissues of a 500 "lock conflict"
)

// conflictBackoff is how long the k-th reissue of a lock conflict waits:
// 0.1 ms tripling each time up to 8.1 ms, scaled by a factor in [0.5, 1.5)
// drawn from the op's index. The store fails fast instead of queueing, so the client
// is the queue. Reissuing at once only finds the same holder again, and
// several senders reissuing after equal waits only find each other.
func conflictBackoff(idx int32, k uint8) time.Duration {
	h := (uint32(idx) + uint32(k)*40503) * 2654435761 // Knuth's multiplicative hash: cheap, and the same on every run
	base := 100 * time.Microsecond
	for ; k > 0 && base < 8*time.Millisecond; k-- {
		base *= 3
	}
	return base/2 + time.Duration(uint64(base)*uint64(h>>16)/65536)
}

// opResult is what the run keeps per op; every latency, ratio and count
// is computed from these afterwards, so nothing is aggregated while the
// clock is running.
type opResult struct {
	due   time.Duration // intended send time, from phase start
	first time.Duration // when the first attempt was really sent
	done  time.Duration // when the final outcome was known
	flags uint16
}

const (
	fSent        uint16 = 1 << iota // the op's turn came (it counts as attempted)
	fOK                             // final outcome: validated 200
	fFirstOK                        // ... and already on the first attempt (conflict reissues aside)
	fRelogin                        // a 401 was answered by logging in again
	fSaw401                         // any attempt returned 401
	fSkipped                        // second step of a flow whose first step failed: never sent, failed with it
	fConflict                       // at least one "lock conflict" reissue
	fBadBody                        // a 200 carried the wrong page
	fLostSession                    // a 401 although the user had logged in and not out since
	fQueued                         // the op's turn came while its user was still busy with the previous one
	fAltBody                        // the 200 was the op\'s alternative page (ViewItem\'s sold-item fallback)
)

// vuser is one virtual user: a cookie jar and the little the client knows
// about its own session. Only the sender that owns the user touches it.
type vuser struct {
	cookie     string
	login      int64 // dataset user to log in as again after a 401
	loggedIn   bool  // the last login op succeeded and no logout has since
	busy       bool  // an op is in progress (possibly waiting out a Retry-After)
	prevFailed bool
	queue      []int32 // ops whose turn came while the user was busy
}

type task struct {
	idx       int32
	queued    bool
	at        time.Duration // retry heap key
	retries   uint8
	conflicts uint8
	relogged  bool
	started   bool
}

type retryHeap []task

func (h retryHeap) Len() int           { return len(h) }
func (h retryHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h retryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)        { *h = append(*h, x.(task)) }
func (h *retryHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// loadRun drives ops[from:to) of a stream at one target. With due set it
// is an open loop: op i is sent at start+due[i-from] whatever the system
// is doing, and its latency runs from that intended time. With due nil it
// is a closed loop: every sender issues its share back to back.
//
// Users are split over the senders (user mod conns), each sender owning
// one keep-alive connection, so a user's ops stay ordered without any
// locking and an op costs the generator exactly one timer wake-up. A
// sender never sleeps on a Retry-After: the op is parked on a timer and
// the connection moves on to the next due op, as independent users would.
type loadRun struct {
	target string
	st     *stream
	from   int
	to     int
	due    []time.Duration
	conns  int
	users  []vuser
	ledger *bidLedger
	trace  bool    // send the op index as the trace header
	tracer *tracer // record a client span around every request

	// until cuts an open loop short: ops due later are never sent. The
	// recovery controller lowers it when its last phase ends.
	until atomic.Int64

	res       []opResult
	statuses  [6]atomic.Int64 // by statusBucket
	bodyBytes atomic.Int64

	failMu   sync.Mutex
	failures []string // the first few failed attempts, for the report
	wrong    []string // the first few 200s with the wrong page
	lapsed   []string // the first few 401s to logged-in users
	start    time.Time
	elapsed  time.Duration
}

func statusBucket(status int) int {
	switch {
	case status == 200:
		return 0
	case status == 401:
		return 1
	case status == 500:
		return 2
	case status == 503:
		return 3
	case status == 502 || status == 504:
		return 4
	}
	return 5 // transport errors and everything else
}

func (r *loadRun) run() {
	r.begin()
	r.drive()
}

// quiesce collects the generator's garbage now and turns its collector off,
// so that no collection runs inside a timed phase: the collector's worker
// threads share two CPUs with the servers, and a cycle shows as a dip in
// what is measured. The senders allocate nothing per request, so nothing
// piles up meanwhile. The returned function turns the collector back on.
func quiesce() func() {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// begin starts the clock; drive sends the ops and returns when the last
// has its outcome. They are separate so that a controller can be handed
// a run whose clock is already set.
func (r *loadRun) begin() {
	r.res = make([]opResult, r.to-r.from)
	r.until.Store(math.MaxInt64)
	r.start = time.Now()
}

func (r *loadRun) drive() {
	mine := make([][]int32, r.conns)
	for i := r.from; i < r.to; i++ {
		k := int(r.st.ops[i].user) % r.conns
		mine[k] = append(mine[k], int32(i))
	}
	var wg sync.WaitGroup
	for k := 0; k < r.conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r.sender(mine[k])
		}(k)
	}
	wg.Wait()
	r.elapsed = time.Since(r.start)
}

// stopAfter ends an open loop: nothing due after now is sent.
func (r *loadRun) stopAfter() { r.until.Store(int64(time.Since(r.start))) }

func (r *loadRun) sender(mine []int32) {
	// A sender is a thread of its own: it sleeps, writes and reads in
	// blocking system calls, woken by the kernel directly, and with the
	// default 50 µs timer slack turned off its sleeps end within a few
	// microseconds of when they should.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: without it ops are sent a little later
	c := newConn(r.target)
	defer c.close()
	var rq retryHeap // ops waiting out a Retry-After or a conflict backoff
	var ready []task // ops released by their user's previous op
	next := 0
	for {
		now := time.Since(r.start)
		until := time.Duration(r.until.Load())
		var t task
		switch {
		case len(rq) > 0 && rq[0].at <= now:
			t = heap.Pop(&rq).(task)
		case len(ready) > 0:
			t, ready = ready[0], ready[1:]
		case next < len(mine) && r.dueOf(mine[next]) > until:
			next = len(mine) // the phase is over for everything not yet due
			continue
		case next < len(mine) && r.dueOf(mine[next]) <= now:
			idx := mine[next]
			next++
			u := &r.users[r.st.ops[idx].user]
			if u.busy {
				u.queue = append(u.queue, idx)
				continue
			}
			u.busy = true
			t = task{idx: idx}
		default:
			wake := time.Duration(math.MaxInt64)
			if len(rq) > 0 {
				wake = rq[0].at
			}
			if next < len(mine) {
				wake = min(wake, r.dueOf(mine[next]))
			}
			if wake == math.MaxInt64 {
				return
			}
			// Wake at least every 20 ms to notice a lowered until.
			sleepUntil(r.start.Add(min(wake, now+20*time.Millisecond)))
			continue
		}
		if r.attempt(c, &t) {
			heap.Push(&rq, t)
			continue
		}
		// The op is over: its user's next waiting op, if any, may run.
		u := &r.users[r.st.ops[t.idx].user]
		u.busy = false
		if len(u.queue) > 0 {
			u.busy = true
			ready = append(ready, task{idx: u.queue[0], queued: true})
			u.queue = u.queue[1:]
		}
	}
}

func (r *loadRun) dueOf(idx int32) time.Duration {
	if r.due == nil {
		return 0
	}
	return r.due[int(idx)-r.from]
}

// attempt runs one op until it succeeds or fails (false), or has to wait
// out a Retry-After or a conflict backoff (true: t.at says until when, and
// the user stays busy).
func (r *loadRun) attempt(c *conn, t *task) (again bool) {
	o := &r.st.ops[t.idx]
	u := &r.users[o.user]
	res := &r.res[int(t.idx)-r.from]
	if !t.started {
		t.started = true
		res.first = time.Since(r.start)
		res.due = res.first
		if r.due != nil {
			res.due = r.dueOf(t.idx)
		}
		res.flags |= fSent
		if t.queued {
			res.flags |= fQueued
		}
		switch o.name {
		case ebid.Authenticate:
			u.login, u.loggedIn = o.login, false // who the user means to be, whatever becomes of this attempt
		case ebid.RegisterNewUser:
			u.login, u.loggedIn = 0, false
		}
		if o.step2 && u.prevFailed {
			// The paper's action-weighted accounting: a failed first step
			// fails the whole action; its second step is not sent.
			res.flags |= fSkipped
			r.finish(t, false, nil)
			return false
		}
	}
	reqID := int64(-1)
	if r.trace {
		reqID = int64(t.idx)
	}
	for {
		var spanIdx int32
		if r.tracer != nil {
			r.tracer.current.Store(t.idx)
			spanIdx = r.tracer.begin(t.idx, layerClient)
		}
		resp, err := c.get(o.path, u.cookie, reqID)
		if r.tracer != nil {
			r.tracer.end(t.idx, spanIdx)
		}
		r.observe(u, resp, err)
		v, wait := classify(resp.status, resp.retryAfter, resp.body, err, o.idem, o.want)
		if v == vBadBody && o.wantAlt != "" && containsStr(resp.body, o.wantAlt) && !looksFaulty(resp.body) {
			v = vOK
			res.flags |= fAltBody
		}
		switch {
		case v == vOK:
			r.finish(t, true, resp.body)
			return false
		case v == vConflict && t.conflicts < maxConflicts:
			t.at = time.Since(r.start) + conflictBackoff(t.idx, t.conflicts)
			t.conflicts++
			res.flags |= fConflict
			return true
		case v == vBadBody && o.name == ebid.AboutMe && !u.loggedIn:
			// The login before it failed, so the cookie still names whoever
			// was logged in earlier: a failure that follows from that one,
			// not a wrong answer.
		case v == vBadBody:
			res.flags |= fBadBody
			r.note(&r.wrong, o, resp, nil)
		case v == vRelogin:
			res.flags |= fSaw401
			if u.loggedIn {
				res.flags |= fLostSession
				u.loggedIn = false
				r.note(&r.lapsed, o, resp, nil)
			}
			if !t.relogged && o.name != ebid.Authenticate && u.login > 0 && r.relogin(c, u) {
				t.relogged = true
				res.flags |= fRelogin
				continue
			}
		case v == vRetryAfter && t.retries < maxRetryAfter:
			t.retries++
			t.at = time.Since(r.start) + wait
			return true
		}
		r.note(&r.failures, o, resp, err)
		r.finish(t, false, nil)
		return false
	}
}

// note keeps a description of the first few attempts of some kind.
func (r *loadRun) note(list *[]string, o *op, resp response, err error) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if len(*list) >= 5 {
		return
	}
	at := time.Since(r.start).Round(time.Millisecond)
	if err != nil {
		*list = append(*list, fmt.Sprintf("+%v user %d %s: %v", at, o.user, o.path, err))
		return
	}
	body := resp.body
	if len(body) > 120 {
		body = body[:120]
	}
	*list = append(*list, fmt.Sprintf("+%v user %d %s: status %d, body %q (want %q)", at, o.user, o.path, resp.status, body, o.want))
}

// observe keeps the cookie jar and the status counts current.
func (r *loadRun) observe(u *vuser, resp response, err error) {
	if err != nil {
		r.statuses[5].Add(1)
		return
	}
	r.statuses[statusBucket(resp.status)].Add(1)
	r.bodyBytes.Add(int64(len(resp.body)))
	if resp.setCookie != nil {
		u.cookie = string(resp.setCookie)
	}
}

// relogin answers a 401 the crash-only way: authenticate again as the
// same dataset user, so the interrupted op can be repeated.
func (r *loadRun) relogin(c *conn, u *vuser) bool {
	path := "/ebid/" + ebid.Authenticate + "?user=" + strconv.FormatInt(u.login, 10)
	resp, err := c.get(path, u.cookie, -1)
	r.observe(u, resp, err)
	v, _ := classify(resp.status, resp.retryAfter, resp.body, err, false, "welcome user")
	u.loggedIn = v == vOK
	return u.loggedIn
}

// finish records an op's final outcome.
func (r *loadRun) finish(t *task, ok bool, body []byte) {
	o := &r.st.ops[t.idx]
	u := &r.users[o.user]
	res := &r.res[int(t.idx)-r.from]
	res.done = time.Since(r.start)
	if ok {
		res.flags |= fOK
		if t.retries == 0 && !t.relogged {
			res.flags |= fFirstOK
		}
		switch o.name {
		case ebid.Authenticate:
			u.loggedIn = true
		case ebid.RegisterNewUser:
			u.login, u.loggedIn = registeredID(body), true
		case ebid.OpLogout:
			u.loggedIn = false
		}
	}
	if o.name == ebid.CommitBid && res.flags&fSkipped == 0 && r.ledger != nil {
		r.ledger.record(o.item, ok)
	}
	u.prevFailed = !ok
}

// registeredID pulls the id out of "<html>registered user 251</html>".
func registeredID(body []byte) int64 {
	const prefix = "registered user "
	for i := 0; i+len(prefix) <= len(body); i++ {
		if string(body[i:i+len(prefix)]) == prefix {
			var n int64
			for _, c := range body[i+len(prefix):] {
				if c < '0' || c > '9' {
					break
				}
				n = n*10 + int64(c-'0')
			}
			return n
		}
	}
	return 0
}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK

// sleepUntil waits for a wall-clock instant with microseconds of error.
// time.Sleep cannot: an idle Go runtime rounds short timers up to its 1 ms
// poll, which would add up to a millisecond of generator lag to every
// open-loop latency. nanosleep(2) is asked to wake a little early and the
// rest is spun.
func sleepUntil(t time.Time) {
	const spin = 20 * time.Microsecond
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spin+20*time.Microsecond {
			ts := syscall.NsecToTimespec(int64(d - spin))
			_ = syscall.Nanosleep(&ts, nil) // an early EINTR return is handled by the loop
		}
	}
}

// phaseStats is one timed phase reduced to the numbers the metrics use.
type phaseStats struct {
	sent, ok, firstFailed, masked, failed int
	relogins, saw401, conflicts, skipped  int
	badBody, altBody                      int
	sloOK                                 int
	latUS                                 []float64 // sorted; ops with a final outcome, failed ones included
	lagUS                                 []float64 // sorted
	elapsed                               time.Duration
}

// windowPercentiles cuts [0, span) into windows of the given length by the
// ops' intended times and returns the q-quantile of the latencies in each
// window. The run reports the median of these. A burst of interference — a
// collector cycle, a hiccup of the virtual machine — lands in one or two
// windows and moves their percentile a lot and the median of windows
// hardly at all; a real change in the system moves every window.
func windowPercentiles(res []opResult, span, window time.Duration, q float64) []float64 {
	k := max(1, int(span/window))
	lats := make([][]float64, k)
	for i := range res {
		r := &res[i]
		if r.flags&fSent == 0 {
			continue
		}
		w := min(int(r.due/window), k-1)
		lats[w] = append(lats[w], float64(r.done-r.due)/1e3)
	}
	var per []float64
	for _, l := range lats {
		if len(l) > 0 {
			sort.Float64s(l)
			per = append(per, percentile(l, q))
		}
	}
	return per
}

// lostSessionsBefore counts logged-in users told their session was gone
// at a time before t.
func lostSessionsBefore(res []opResult, t time.Duration) int {
	n := 0
	for i := range res {
		if res[i].flags&fLostSession != 0 && res[i].done < t {
			n++
		}
	}
	return n
}

// reduce summarises the ops whose intended time falls in [lo, hi).
func reduce(res []opResult, lo, hi, slo time.Duration) phaseStats {
	var p phaseStats
	for i := range res {
		r := &res[i]
		if r.flags&fSent == 0 || r.due < lo || r.due >= hi {
			continue
		}
		p.sent++
		lat := r.done - r.due
		p.latUS = append(p.latUS, float64(lat)/1e3)
		if r.flags&fQueued == 0 {
			// How late the generator itself ran. An op that had to wait
			// for its own user's previous op was not late by the
			// generator's doing; that wait is in its latency all the same.
			p.lagUS = append(p.lagUS, float64(r.first-r.due)/1e3)
		}
		if r.flags&fAltBody != 0 {
			p.altBody++
		}
		switch {
		case r.flags&fOK == 0:
			p.failed++
			p.firstFailed++
		case r.flags&fFirstOK == 0:
			p.masked++
			p.firstFailed++
			p.ok++
		default:
			p.ok++
		}
		if r.flags&fOK != 0 && lat <= slo {
			p.sloOK++
		}
		if r.flags&fRelogin != 0 {
			p.relogins++
		}
		if r.flags&fSaw401 != 0 {
			p.saw401++
		}
		if r.flags&fConflict != 0 {
			p.conflicts++
		}
		if r.flags&fSkipped != 0 {
			p.skipped++
		}
		if r.flags&fBadBody != 0 {
			p.badBody++
		}
	}
	sort.Float64s(p.latUS)
	sort.Float64s(p.lagUS)
	return p
}
