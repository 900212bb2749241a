package httpfront

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

func newFront(t *testing.T) *Front {
	t.Helper()
	d := db.New(nil)
	cfg := ebid.DatasetConfig{Users: 20, Items: 50, BidsPerItem: 2, Categories: 5, Regions: 5, OldItems: 5}
	if err := ebid.LoadDataset(d, cfg); err != nil {
		t.Fatal(err)
	}
	app, err := ebid.New(d, session.NewFastS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(app)
}

func TestEndToEndHTTPFlow(t *testing.T) {
	f := newFront(t)
	srv := newServer(t, f.Handler())

	jar := map[string]string{}
	do := func(method, path string) (*http.Response, string) {
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range jar {
			req.AddCookie(&http.Cookie{Name: k, Value: v})
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range resp.Cookies() {
			jar[c.Name] = c.Value
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	// Static page.
	resp, body := do("GET", "/ebid/Home")
	if resp.StatusCode != 200 || !strings.Contains(body, "eBid home") {
		t.Fatalf("Home: %d %q", resp.StatusCode, body)
	}
	// Login establishes the cookie session.
	resp, body = do("GET", "/ebid/Authenticate?user=3")
	if resp.StatusCode != 200 || !strings.Contains(body, "welcome") {
		t.Fatalf("Authenticate: %d %q", resp.StatusCode, body)
	}
	// Bid flow across requests (session state on the server).
	resp, _ = do("GET", "/ebid/MakeBid?item=7")
	if resp.StatusCode != 200 {
		t.Fatalf("MakeBid: %d", resp.StatusCode)
	}
	resp, body = do("GET", "/ebid/CommitBid?amount=42.5")
	if resp.StatusCode != 200 || !strings.Contains(body, "bid committed on item 7") {
		t.Fatalf("CommitBid: %d %q", resp.StatusCode, body)
	}
	// An integer amount is bid as given (cmd/loadgen sends only those),
	// not replaced by CommitBid's default of 1.00.
	do("GET", "/ebid/MakeBid?item=7")
	resp, body = do("GET", "/ebid/CommitBid?amount=37")
	if resp.StatusCode != 200 || !strings.Contains(body, "bid committed on item 7 for 37.00") {
		t.Fatalf("CommitBid?amount=37: %d %q", resp.StatusCode, body)
	}
	// Unknown op.
	resp, _ = do("GET", "/ebid/Nope")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown op: %d", resp.StatusCode)
	}
}

// A live µRB is synchronous and costs only its work. While six logged-in
// clients loop over browse and bid operations, 300 remote microreboots
// over the bench's rota each return 200 only after every member is back,
// and every client request either succeeds or is told to retry (503 +
// Retry-After). A 401 would mean a µRB lost a FastS session.
func TestMicrorebootUnderLoad(t *testing.T) {
	f := newFront(t)
	srv := newServer(t, f.Handler())

	type urbReply struct {
		Members    []string `json:"members"`
		DurationMs float64  `json:"duration_ms"`
	}
	microreboot := func(comp string) urbReply {
		resp, err := http.Post(srv.URL+"/admin/microreboot?component="+comp, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("µRB %s: %d %q", comp, resp.StatusCode, body)
		}
		var rb urbReply
		if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
			t.Fatal(err)
		}
		for _, m := range rb.Members {
			if c, err := f.App.Server.Container(m); err != nil || c.State() != core.StateRunning {
				t.Fatalf("µRB %s returned before %s was running again", comp, m)
			}
		}
		return rb
	}

	// The reply reports the members and the measured work, far below
	// ViewItem's modeled 446 ms, and the component serves at once.
	rb := microreboot(ebid.ViewItem)
	if len(rb.Members) != 1 || rb.Members[0] != ebid.ViewItem || rb.DurationMs <= 0 || rb.DurationMs >= 446 {
		t.Fatalf("reboot = %+v", rb)
	}
	resp, err := http.Get(srv.URL + "/ebid/ViewItem?item=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ViewItem right after µRB: %d, want 200", resp.StatusCode)
	}
	// GET on the admin endpoint is rejected.
	resp, err = http.Get(srv.URL + "/admin/microreboot?component=ViewItem")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET admin: %d", resp.StatusCode)
	}

	var (
		mu       sync.Mutex
		bad      []string
		served   atomic.Int64
		loggedIn sync.WaitGroup
		clients  sync.WaitGroup
	)
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopClients := func() {
		stopOnce.Do(func() { close(stop) })
		clients.Wait()
	}
	defer stopClients()
	for c := 1; c <= 6; c++ {
		loggedIn.Add(1)
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			jar, _ := cookiejar.New(nil)
			client := &http.Client{Jar: jar}
			get := func(path string) int {
				resp, err := client.Get(srv.URL + path)
				if err != nil {
					mu.Lock()
					bad = append(bad, path+": "+err.Error())
					mu.Unlock()
					return 0
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					served.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
				// Concurrent CommitBids race for the one id_seq row and
				// the loser fails fast: the store's known behaviour
				// (ROADMAP item 7), not a recovery failure.
				case resp.StatusCode == http.StatusInternalServerError &&
					strings.HasPrefix(path, "/ebid/CommitBid") &&
					strings.Contains(string(body), "db: lock conflict") &&
					strings.Contains(string(body), "id_seq"):
				default:
					mu.Lock()
					bad = append(bad, path+": "+strconv.Itoa(resp.StatusCode)+" "+strings.TrimSpace(string(body)))
					mu.Unlock()
				}
				return resp.StatusCode
			}
			id := strconv.Itoa(c)
			get("/ebid/Authenticate?user=" + id)
			loggedIn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get("/ebid/ViewItem?item=" + id)
				get("/ebid/BrowseCategories")
				if get("/ebid/MakeBid?item="+id) == http.StatusOK {
					get("/ebid/CommitBid?amount=" + id)
				}
				get("/ebid/AboutMe")
			}
		}(c)
	}
	loggedIn.Wait()
	rota := []string{ebid.ViewItem, ebid.EntItem, ebid.MakeBid, ebid.Authenticate, ebid.AboutMe, ebid.WAR}
	for i := 0; i < 300; i++ {
		microreboot(rota[i%len(rota)])
	}
	stopClients()
	if len(bad) > 0 {
		t.Fatalf("%d requests failed under µRB load, first: %s", len(bad), bad[0])
	}
	if served.Load() == 0 {
		t.Fatal("no request served during the µRB run")
	}
}

// A request hitting a mid-microreboot component must receive 503 with a
// Retry-After header that covers the component's remaining recovery time
// (ViewItem's modeled µRB is 446 ms → 1 s at HTTP granularity).
func TestRetryAfterPropagation(t *testing.T) {
	f := newFront(t)
	srv := newServer(t, f.Handler())

	rb, err := f.App.Server.BeginMicroreboot(ebid.ViewItem)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/ebid/ViewItem?item=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (ceil of 446ms)", got)
	}
	// Other components keep serving while ViewItem is down.
	resp, err = http.Get(srv.URL + "/ebid/BrowseCategories")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("BrowseCategories during ViewItem µRB: %d", resp.StatusCode)
	}
	if err := f.App.Server.CompleteMicroreboot(rb); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/ebid/ViewItem?item=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("after reintegration: %d, want 200", resp.StatusCode)
	}
}

// A killed in-flight request must observe context cancellation: a request
// wedged inside a component (injected infinite loop) parks on its
// context, and the microreboot that destroys its shepherd unblocks it
// immediately with 503 + Retry-After.
func TestKilledInFlightRequestObservesCancellation(t *testing.T) {
	f := newFront(t)
	srv := newServer(t, f.Handler())

	inj := faults.NewInjector(f.App.Server, f.App.DB, f.App.Sessions)
	if _, err := inj.Inject(faults.Spec{Kind: faults.InfiniteLoop, Component: ebid.ViewItem}); err != nil {
		t.Fatal(err)
	}

	type result struct {
		status     int
		retryAfter string
		err        error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/ebid/ViewItem?item=1")
		if err != nil {
			done <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- result{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	}()

	// Wait until the request is parked inside the wedged component.
	deadline := time.Now().Add(5 * time.Second)
	for f.App.Server.ActiveCalls(ebid.ViewItem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked in ViewItem")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-done:
		t.Fatalf("wedged request returned before the µRB: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}

	// The µRB kills the shepherd; the parked request must unblock.
	rb, err := f.App.Server.Microreboot(ebid.ViewItem)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.KilledCalls) == 0 {
		t.Fatal("µRB reported no killed calls")
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("killed request transport error: %v", r.err)
		}
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("killed request status = %d, want 503", r.status)
		}
		if r.retryAfter == "" {
			t.Fatal("killed request missing Retry-After header")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("killed in-flight request did not observe context cancellation")
	}
}

// The execution lease is a real context deadline: a wedged request whose
// TTL expires returns 504 without any recovery action.
func TestLeaseExpiryReturns504(t *testing.T) {
	f := newFront(t)
	f.RequestTTL = 100 * time.Millisecond
	srv := newServer(t, f.Handler())

	inj := faults.NewInjector(f.App.Server, f.App.DB, f.App.Sessions)
	if _, err := inj.Inject(faults.Spec{Kind: faults.InfiniteLoop, Component: ebid.ViewItem}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Get(srv.URL + "/ebid/ViewItem?item=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("lease expiry took %v; context deadline not enforced", took)
	}
}

// Fresh session IDs must be collision-free under concurrent first
// requests (crypto/rand, not timestamps).
func TestSessionIDsUnique(t *testing.T) {
	f := newFront(t)
	srv := newServer(t, f.Handler())

	const n = 32
	ids := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/ebid/Home")
			if err != nil {
				ids <- "err:" + err.Error()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			for _, c := range resp.Cookies() {
				if c.Name == "EBIDSESSION" {
					ids <- c.Value
					return
				}
			}
			ids <- "missing"
		}()
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		id := <-ids
		if id == "missing" || strings.HasPrefix(id, "err:") {
			t.Fatalf("bad session id result: %s", id)
		}
		if seen[id] {
			t.Fatalf("session id collision: %s", id)
		}
		seen[id] = true
	}
}

func TestComponentsEndpoint(t *testing.T) {
	f := newFront(t)
	srv := newServer(t, f.Handler())
	resp, err := http.Get(srv.URL + "/admin/components")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var comps []struct {
		Name  string   `json:"name"`
		State string   `json:"state"`
		Group []string `json:"recovery_group"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&comps); err != nil {
		t.Fatal(err)
	}
	if len(comps) != 27 {
		t.Fatalf("components = %d, want 27", len(comps))
	}
	for _, c := range comps {
		if c.State != "running" {
			t.Fatalf("%s state = %s", c.Name, c.State)
		}
	}
}

func TestControlPlaneStatusEndpoint(t *testing.T) {
	f := newFront(t)
	srv := newServer(t, f.Handler())

	// Without a plane attached, the endpoint is absent.
	resp, err := http.Get(srv.URL + "/admin/controlplane/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status without plane = %d, want 404", resp.StatusCode)
	}

	start := time.Now()
	f.Plane = controlplane.New(controlplane.Config{Clock: func() time.Duration { return time.Since(start) }})

	// A failed request reports itself on the bus; a successful one does
	// not.
	if _, err := http.Get(srv.URL + "/ebid/ViewItem?item=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL + "/ebid/AboutMe"); err != nil { // not logged in → failure
		t.Fatal(err)
	}

	resp, err = http.Get(srv.URL + "/admin/controlplane/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var st struct {
		Signals map[string]int64 `json:"signals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Signals["failure"] != 1 {
		t.Fatalf("failure signals = %d, want 1 (AboutMe without a session)", st.Signals["failure"])
	}
	var total int64
	for _, n := range st.Signals {
		total += n
	}
	if total != 1 {
		t.Fatalf("signals = %v, want only the one failure", st.Signals)
	}
}

func TestAdmissionControlShedsNewSessions(t *testing.T) {
	f := newFront(t)
	f.ShedWatermark = 1
	srv := newServer(t, f.Handler())

	// Establish a session while the server is idle.
	resp, err := http.Get(srv.URL + "/ebid/Authenticate?user=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var cookie *http.Cookie
	for _, c := range resp.Cookies() {
		if c.Name == "EBIDSESSION" {
			cookie = c
		}
	}
	if cookie == nil {
		t.Fatal("no session cookie issued")
	}

	// Wedge one worker so the in-flight count sits past the watermark.
	inj := faults.NewInjector(f.App.Server, f.App.DB, f.App.Sessions)
	if _, err := inj.Inject(faults.Spec{Kind: faults.InfiniteLoop, Component: ebid.ViewItem}); err != nil {
		t.Fatal(err)
	}
	go func() { http.Get(srv.URL + "/ebid/ViewItem?item=1") }()
	deadline := time.Now().Add(5 * time.Second)
	for f.App.Server.ActiveCalls(ebid.ViewItem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked in ViewItem")
		}
		time.Sleep(time.Millisecond)
	}

	// A cookie-less request is turned away with a retry hint — and no
	// session cookie, so its retry is cheap.
	resp, err = http.Get(srv.URL + "/ebid/Home")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want the 2 s default", resp.Header.Get("Retry-After"))
	}
	if len(resp.Cookies()) != 0 {
		t.Fatal("shed request was issued a session cookie")
	}

	// The established session rides through the overload.
	req, _ := http.NewRequest("GET", srv.URL+"/ebid/AboutMe", nil)
	req.AddCookie(cookie)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("established session status = %d, want 200", resp.StatusCode)
	}

	if f.Shed() != 1 {
		t.Fatalf("shed counter = %d, want 1", f.Shed())
	}
	// Free the parked worker.
	if _, err := f.App.Server.Microreboot(ebid.ViewItem); err != nil {
		t.Fatal(err)
	}
}

func TestFleetStatusEndpointWithSamplerAndPlane(t *testing.T) {
	d := db.New(nil)
	cfg := ebid.DatasetConfig{Users: 20, Items: 50, BidsPerItem: 2, Categories: 5, Regions: 5, OldItems: 5}
	if err := ebid.LoadDataset(d, cfg); err != nil {
		t.Fatal(err)
	}
	app, err := ebid.New(d, session.NewFastS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := ebid.New(d, session.NewFastS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	f := New(app)
	start := time.Now()
	f.Plane = controlplane.New(controlplane.Config{
		Clock: func() time.Duration { return time.Since(start) },
		Fleet: f,
	})
	f.Plane.Use(controlplane.NewFleetController(nil, controlplane.FleetConfig{}))
	f.Sampler = &detect.Sampler{
		Comp:  &detect.Comparison{Good: shadow},
		Every: 1,
		OnDiscrepancy: func(op string, v detect.Verdict) {
			f.Plane.ReportDiscrepancy(op, v.Detail)
		},
	}
	srv := newServer(t, f.Handler())

	// One sampled idempotent read against the identical shadow: checked,
	// no discrepancy.
	resp, err := http.Get(srv.URL + "/ebid/ViewItem?item=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	f.Plane.Tick() // the fleet probe publishes one node-load sample

	resp, err = http.Get(srv.URL + "/admin/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Node       string `json:"node"`
		Shed       int64  `json:"shed"`
		Comparison struct {
			Checked       int64 `json:"checked"`
			Discrepancies int64 `json:"discrepancies"`
		} `json:"comparison"`
		Controller struct {
			Nodes []controlplane.NodeStat `json:"nodes"`
		} `json:"controller"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Node != NodeName || st.Shed != 0 {
		t.Fatalf("fleet status = %+v", st)
	}
	if st.Comparison.Checked != 1 || st.Comparison.Discrepancies != 0 {
		t.Fatalf("comparison stats = %+v", st.Comparison)
	}
	if len(st.Controller.Nodes) != 1 || st.Controller.Nodes[0].Node != NodeName {
		t.Fatalf("controller view = %+v", st.Controller)
	}
}

// TestHealthzReady checks the supervisor's readiness probe answers with
// the configured node identity.
func TestHealthzReady(t *testing.T) {
	f := newFront(t)
	f.Node = "backend-2"
	srv := newServer(t, f.Handler())

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var hz struct {
		Ready bool   `json:"ready"`
		Node  string `json:"node"`
		Pid   int    `json:"pid"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.Ready || hz.Node != "backend-2" || hz.Pid == 0 {
		t.Fatalf("healthz = %+v, want ready with node backend-2 and a pid", hz)
	}
}

// TestSessionLapse401 checks a session-requiring operation with no
// stored session answers 401 (client-recoverable: log in again), not a
// 5xx — the contract the fleet's failover path depends on after a
// backend loses its per-process session state.
func TestSessionLapse401(t *testing.T) {
	f := newFront(t)
	srv := newServer(t, f.Handler())

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/ebid/AboutMe", nil)
	if err != nil {
		t.Fatal(err)
	}
	// An established cookie whose backend-side state is gone (the
	// killed-backend failover shape).
	req.AddCookie(&http.Cookie{Name: "EBIDSESSION", Value: "http-was-on-a-dead-backend"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d (%s), want 401", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// TestSessionIDScanner: the shared cookie scanner reads what net/http's
// own parser reads from a well-formed Cookie header, and allocates
// nothing doing it.
func TestSessionIDScanner(t *testing.T) {
	for _, tc := range []struct {
		lines []string
		want  string
	}{
		{nil, ""},
		{[]string{"EBIDSESSION=http-0123abcd"}, "http-0123abcd"},
		{[]string{"theme=dark; EBIDSESSION=s1; lang=en"}, "s1"},
		{[]string{"theme=dark;EBIDSESSION=s1"}, "s1"},
		{[]string{"theme=dark", "  EBIDSESSION=s2  "}, "s2"},
		{[]string{`EBIDSESSION="quoted"`}, "quoted"},
		{[]string{"EBIDSESSION=first; EBIDSESSION=second"}, "first"},
		{[]string{"XEBIDSESSION=no; EBIDSESSIONX=no"}, ""},
		{[]string{"EBIDSESSION="}, ""},
		{[]string{"EBIDSESSION"}, ""},
	} {
		h := http.Header{}
		for _, l := range tc.lines {
			h.Add("Cookie", l)
		}
		if got := SessionID(h); got != tc.want {
			t.Errorf("SessionID(%q) = %q, want %q", tc.lines, got, tc.want)
		}
		std := ""
		if c, err := (&http.Request{Header: h}).Cookie(SessionCookie); err == nil {
			std = c.Value
		}
		if std != tc.want {
			t.Errorf("net/http reads %q from %q; the scanner's %q is out of step with it", std, tc.lines, tc.want)
		}
	}
	h := http.Header{"Cookie": {"theme=dark; EBIDSESSION=http-0123abcd"}}
	if n := testing.AllocsPerRun(100, func() { _ = SessionID(h) }); n != 0 {
		t.Errorf("SessionID allocates %.0f times", n)
	}
}

// FuzzSessionID: on any one Cookie line the scanner never panics and
// returns "" or a ';'-free substring of the line; on every line net/http
// accepts, it returns what net/http reads as the first EBIDSESSION value.
func FuzzSessionID(f *testing.F) {
	// testdata/fuzz/FuzzSessionID adds the quoted, empty, '='-carrying
	// and duplicated values.
	for _, line := range []string{
		"EBIDSESSION=http-0123abcd", "theme=dark; EBIDSESSION=s1; lang=en",
		"XEBIDSESSION=no; EBIDSESSIONX=no", "", ";",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got := SessionID(http.Header{"Cookie": {line}})
		if strings.Contains(got, ";") || !strings.Contains(line, got) {
			t.Fatalf("SessionID(%q) = %q: not a ';'-free substring of the line", line, got)
		}
		cookies, err := http.ParseCookie(line)
		if err != nil {
			return
		}
		want := ""
		for _, c := range cookies {
			if c.Name == SessionCookie {
				want = c.Value
				break
			}
		}
		if got != want {
			t.Fatalf("SessionID(%q) = %q, net/http reads %q", line, got, want)
		}
	})
}

// TestOpResponseIsLengthFramed: an operation's body goes out as before —
// the rendered page and a newline — under one Content-Length, on Server,
// which frames every response by its length, and on net/http, which does
// for a body this small. The handler leaves the framing to them.
func TestOpResponseIsLengthFramed(t *testing.T) {
	ref := httptest.NewServer(newFront(t).Handler())
	defer ref.Close()
	for name, addr := range map[string]string{
		"Server":   newServer(t, newFront(t).Handler()).addr,
		"net/http": strings.TrimPrefix(ref.URL, "http://"),
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		send(t, nc, "GET /ebid/ViewItem?item=7 HTTP/1.1\r\nHost: x\r\n\r\n")
		resp, body := readResponse(t, bufio.NewReader(nc), http.MethodGet)
		if resp.StatusCode != http.StatusOK || !strings.HasSuffix(body, "\n") || strings.Count(body, "\n") != 1 {
			t.Fatalf("%s: ViewItem: %d %q", name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Content-Type"); got != "text/html; charset=utf-8" {
			t.Errorf("%s: Content-Type = %q", name, got)
		}
	}
}

// TestOpDispatchMatchesMux pins the op dispatch in front of the mux: for
// each path, Front.Handler() answers with the status, Location and body
// the bare mux gives. Known ops on clean paths take the dispatch; the
// rest — the mux's redirects of unclean or escaped paths, unknown ops and
// the admin surfaces — go through the mux.
func TestOpDispatchMatchesMux(t *testing.T) {
	f := newFront(t)
	handler, mux := f.Handler(), f.mux()
	digits := regexp.MustCompile(`[0-9]+`) // the pprof index counts live goroutines
	for _, target := range []string{
		"/ebid/ViewItem?item=3", "/ebid/Home", "/ebid/BrowseRegions",
		"/ebid", "/ebid/", "/ebid//ViewItem", "/ebid/./ViewItem", "/ebid/View%49tem?item=3",
		"/ebid%2FViewItem?item=3", "/ebid/Nope", "/ebid/ViewItem/extra",
		"/healthz", "/admin/components", "/debug/pprof/",
	} {
		do := func(h http.Handler) (int, string, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			body := sessionIDs.ReplaceAllString(rec.Body.String(), "<id>")
			if strings.HasPrefix(target, "/debug/") || target == "/healthz" {
				body = digits.ReplaceAllString(body, "N")
			}
			return rec.Code, rec.Header().Get("Location"), body
		}
		code, loc, body := do(handler)
		wantCode, wantLoc, wantBody := do(mux)
		if code != wantCode || loc != wantLoc || body != wantBody {
			t.Errorf("%s: %d %q %q; the mux answers %d %q %q", target, code, loc, body, wantCode, wantLoc, wantBody)
		}
	}
}

// signalLog is a controller that keeps the failure kinds it is sent.
type signalLog struct {
	mu    sync.Mutex
	kinds []string
}

func (l *signalLog) Name() string                    { return "signal-log" }
func (l *signalLog) Tick(time.Duration) (act func()) { return nil }
func (l *signalLog) Status() any                     { return nil }
func (l *signalLog) OnSignal(s controlplane.Signal) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.kinds = append(l.kinds, s.FailureKind)
}

// TestCommitWithNoItemIs409: a commit point reached by a logged-in session
// that selected nothing (its MakeBid or BuyNow went to another backend, or
// it committed already) is the client's state, not a server fault. Both
// CommitBid and CommitBuyNow answer 409, and the plane hears of it as a
// client-state failure, which no recovery policy reboots a component for.
func TestCommitWithNoItemIs409(t *testing.T) {
	f := newFront(t)
	log := &signalLog{}
	f.Plane = controlplane.New(controlplane.Config{Clock: func() time.Duration { return 0 }})
	f.Plane.Use(log)
	srv := newServer(t, f.Handler())

	resp, err := http.Get(srv.URL + "/ebid/Authenticate?user=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cookies := resp.Cookies()
	for _, op := range []string{ebid.CommitBid, ebid.CommitBuyNow} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/ebid/"+op, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cookies {
			req.AddCookie(c)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "no item selected") {
			t.Errorf("%s with no item selected: %d %q, want 409", op, resp.StatusCode, body)
		}
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if !slices.Equal(log.kinds, []string{"client-state", "client-state"}) {
		t.Errorf("the plane heard failure kinds %q, want two client-state", log.kinds)
	}
}
