// Command loadgen drives a running ebid-server (or an ebid-proxy fleet)
// with the paper's client workload over real HTTP: emulated users
// walking the Markov chain of Table 1, with client-side failure
// detection and a live Taw readout.
//
// The client behaves crash-only: a 401 means its session lapsed (the
// backend process died and took the session store with it), so it logs
// in again and repeats the operation; a 503 + Retry-After is admission
// control, honored by waiting. Neither is a failure. A plain 5xx to an
// established session IS a failure — with -fail-established-5xx the
// exit code makes that a CI-enforceable contract. A 502 to an op that is
// not idempotent is ebid-proxy's "outcome unknown, not re-sent": it is
// counted as unknown_outcome instead, to hold against the router's count.
//
// Usage:
//
//	loadgen [-url http://localhost:8080] [-clients 50] [-duration 30s] [-think 500ms] [-fail-established-5xx]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ebid"
)

// counters aggregates client-observed outcomes across all emulated users.
type counters struct {
	good     atomic.Int64 // 200s with sane bodies
	bad      atomic.Int64 // failures the user saw
	retried  atomic.Int64 // 503 + Retry-After honored (admission control)
	relogins atomic.Int64 // 401 session lapses answered by logging in again
	estab5xx atomic.Int64 // 5xx (not shedding) on an established session — the fleet contract violation
	unknown  atomic.Int64 // 502 to an established session's non-idempotent op: outcome unknown
}

// String is the counters' progress line.
func (c *counters) String() string {
	return fmt.Sprintf("good=%d bad=%d retried=%d relogins=%d estab5xx=%d unknown_outcome=%d",
		c.good.Load(), c.bad.Load(), c.retried.Load(), c.relogins.Load(), c.estab5xx.Load(), c.unknown.Load())
}

func main() {
	base := flag.String("url", "http://localhost:8080", "ebid-server or ebid-proxy base URL")
	clients := flag.Int("clients", 50, "concurrent emulated users")
	duration := flag.Duration("duration", 30*time.Second, "run length")
	think := flag.Duration("think", 500*time.Millisecond, "mean think time (paper: 7s)")
	users := flag.Int64("users", 250, "dataset user-id range")
	items := flag.Int64("items", 3300, "dataset item-id range")
	failEstab := flag.Bool("fail-established-5xx", false,
		"exit 1 if any established session receives a 5xx other than admission-control shedding or an unknown outcome (502 to a non-idempotent op)")
	flag.Parse()

	var c counters
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runClient(id, *base, deadline, *think, *users, *items, &c)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			log.Print(&c)
		case <-done:
			fmt.Printf("final: %v\n", &c)
			if *failEstab && c.estab5xx.Load() > 0 {
				fmt.Printf("FAIL: %d established sessions saw 5xx\n", c.estab5xx.Load())
				os.Exit(1)
			}
			return
		}
	}
}

// runClient walks a simplified session loop: login, browse/bid, logout.
func runClient(id int, base string, deadline time.Time, think time.Duration,
	users, items int64, c *counters) {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	jar, err := cookiejar.New(nil)
	if err != nil {
		return
	}
	hc := &http.Client{Jar: jar, Timeout: 30 * time.Second}

	established := false
	curUser := int64(1)

	fetch := func(op string, query string) (*http.Response, []byte, bool) {
		url := base + "/ebid/" + op
		if query != "" {
			url += "?" + query
		}
		resp, err := hc.Get(url)
		if err != nil {
			return nil, nil, false
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body, true
	}

	get := func(op string, query string) bool {
		for attempt := 0; attempt < 4; attempt++ {
			resp, body, ok := fetch(op, query)
			if !ok {
				c.bad.Add(1)
				return false
			}
			if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
				// Admission control: honor Retry-After (§6.2's retry).
				c.retried.Add(1)
				wait := time.Second
				var secs int
				if _, err := fmt.Sscan(resp.Header.Get("Retry-After"), &secs); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
				time.Sleep(wait)
				continue
			}
			if resp.StatusCode == http.StatusUnauthorized {
				// Session lapse: the crash-only answer is to log in
				// again and repeat the operation, transparently to the
				// "user".
				c.relogins.Add(1)
				established = false
				if op == ebid.Authenticate {
					c.bad.Add(1)
					return false
				}
				if r2, _, ok2 := fetch(ebid.Authenticate, fmt.Sprintf("user=%d", curUser)); ok2 && r2.StatusCode == http.StatusOK {
					established = true
					continue
				}
				c.bad.Add(1)
				return false
			}
			if resp.StatusCode >= 500 {
				switch info, _ := ebid.Info(op); {
				case !established:
				case resp.StatusCode == http.StatusBadGateway && !info.Idempotent:
					c.unknown.Add(1)
				default:
					c.estab5xx.Add(1)
				}
				c.bad.Add(1)
				return false
			}
			lower := strings.ToLower(string(body))
			if resp.StatusCode != 200 || strings.Contains(lower, "exception") ||
				strings.Contains(lower, "error") || strings.Contains(lower, "failed") {
				c.bad.Add(1)
				return false
			}
			c.good.Add(1)
			return true
		}
		c.bad.Add(1)
		return false
	}
	pause := func() {
		d := time.Duration(rng.ExpFloat64() * float64(think))
		if d > 10*think {
			d = 10 * think
		}
		time.Sleep(d)
	}

	for time.Now().Before(deadline) {
		get(ebid.OpHome, "")
		pause()
		curUser = 1 + rng.Int63n(users)
		if get(ebid.Authenticate, fmt.Sprintf("user=%d", curUser)) {
			established = true
		}
		pause()
		for i := 0; i < 3+rng.Intn(5) && time.Now().Before(deadline); i++ {
			switch rng.Intn(5) {
			case 0:
				get(ebid.BrowseCategories, "")
			case 1:
				get(ebid.ViewItem, fmt.Sprintf("item=%d", 1+rng.Int63n(items)))
			case 2:
				get(ebid.SearchItemsByCategory, fmt.Sprintf("category=%d", 1+rng.Int63n(20)))
			case 3:
				if get(ebid.MakeBid, fmt.Sprintf("item=%d", 1+rng.Int63n(items))) {
					pause()
					get(ebid.CommitBid, fmt.Sprintf("amount=%d", 1+rng.Intn(500)))
				}
			case 4:
				get(ebid.AboutMe, "")
			}
			pause()
		}
		get(ebid.OpLogout, "")
		established = false
		pause()
	}
}
