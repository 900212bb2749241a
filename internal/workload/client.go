package workload

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/ebid"
	"repro/internal/metrics"
)

// phase is where a client is in its session lifecycle.
type phase int

const (
	phaseStart    phase = iota // next op: Home
	phaseLogin                 // next op: Authenticate or RegisterNewUser
	phaseBrowsing              // logged in, free choice
	phaseFlow                  // mid two-step flow; pendingOp is the second step
)

// client is one emulated user: a Markov chain walker with think times.
type client struct {
	e       *Emulator
	id      int
	phase   phase
	quick   bool // this session is a quick login-check-logout visit
	quickN  int  // ops completed within the quick visit
	pending string

	sessionSeq int
	inFlight   bool

	action []metrics.Op
	failed bool
}

func newClient(e *Emulator, id int) *client {
	return &client{e: e, id: id, phase: phaseStart}
}

func (c *client) sessionID() string {
	return fmt.Sprintf("c%d-s%d", c.id, c.sessionSeq)
}

// step chooses and issues the next operation.
func (c *client) step() {
	if c.e.stopped || c.inFlight {
		return
	}
	if c.e.draining && c.phase == phaseStart {
		// Session boundary during a drain: this user has left the site.
		c.closeAction(false)
		return
	}
	op, args := c.nextOp()
	c.issue(op, args)
}

// nextOp implements the Markov chain. Weights are tuned so the
// steady-state mix reproduces Table 1 (verified by TestTable1Mix).
func (c *client) nextOp() (string, any) {
	rng := c.e.kernel.Rand()
	switch c.phase {
	case phaseStart:
		c.phase = phaseLogin
		// A fresh visit gets a fresh session id. Rotating here — not when
		// the previous session ended — lets the Logout op still carry the
		// id it is logging out, so the server really deletes it.
		c.sessionSeq++
		c.quick = rng.Float64() < quickVisitP
		c.quickN = 0
		return ebid.OpHome, nil
	case phaseLogin:
		c.phase = phaseBrowsing
		if rng.Float64() < 0.13 {
			return ebid.RegisterNewUser, &ebid.OpArgs{Region: c.randRegion()}
		}
		return ebid.Authenticate, &ebid.OpArgs{User: c.randUser()}
	case phaseFlow:
		op := c.pending
		c.pending = ""
		c.phase = phaseBrowsing
		switch op {
		case ebid.CommitBid:
			return op, &ebid.OpArgs{Amount: float64(1 + rng.Intn(500))}
		case ebid.CommitUserFeedback:
			return op, &ebid.OpArgs{Rating: int64(rng.Intn(11) - 5), HasRating: true}
		case ebid.RegisterNewItem:
			return op, &ebid.OpArgs{Category: c.randCategory()}
		default:
			return op, nil
		}
	}

	// phaseBrowsing. Quick visits go straight to AboutMe then Logout.
	if c.quick {
		c.quickN++
		if c.quickN == 1 {
			return ebid.AboutMe, nil
		}
		c.phase = phaseStart
		return ebid.OpLogout, nil
	}

	x := rng.Float64()
	switch {
	case x < 0.13: // session end
		c.phase = phaseStart
		return ebid.OpLogout, nil
	case x < 0.13+0.46: // read-only DB access
		y := rng.Float64()
		switch {
		case y < 0.22:
			return ebid.BrowseCategories, nil
		case y < 0.32:
			return ebid.BrowseRegions, nil
		case y < 0.66:
			return ebid.ViewItem, &ebid.OpArgs{Item: c.randItem()}
		case y < 0.78:
			return ebid.ViewUserInfo, &ebid.OpArgs{User: c.randUser()}
		case y < 0.88:
			return ebid.ViewBidHistory, &ebid.OpArgs{Item: c.randItem()}
		default:
			return ebid.AboutMe, nil
		}
	case x < 0.13+0.46+0.19: // search
		if rng.Float64() < 0.6 {
			return ebid.SearchItemsByCategory, &ebid.OpArgs{Category: c.randCategory()}
		}
		return ebid.SearchItemsByRegion, &ebid.OpArgs{Region: c.randRegion()}
	case x < 0.13+0.46+0.19+0.09: // bid flow
		c.phase = phaseFlow
		c.pending = ebid.CommitBid
		return ebid.MakeBid, &ebid.OpArgs{Item: c.randItem()}
	case x < 0.13+0.46+0.19+0.09+0.04: // buy flow
		c.phase = phaseFlow
		c.pending = ebid.CommitBuyNow
		return ebid.DoBuyNow, &ebid.OpArgs{Item: c.randItem()}
	case x < 0.13+0.46+0.19+0.09+0.04+0.04: // feedback flow
		c.phase = phaseFlow
		c.pending = ebid.CommitUserFeedback
		return ebid.LeaveUserFeedback, &ebid.OpArgs{User: c.randUser()}
	case x < 0.13+0.46+0.19+0.09+0.04+0.04+0.02: // sell flow
		c.phase = phaseFlow
		c.pending = ebid.RegisterNewItem
		return ebid.OpSellForm, nil
	default: // static browsing
		return ebid.OpBrowseMenu, nil
	}
}

func (c *client) randUser() int64     { return 1 + c.e.kernel.Rand().Int63n(c.e.cfg.Users) }
func (c *client) randItem() int64     { return 1 + c.e.kernel.Rand().Int63n(c.e.cfg.Items) }
func (c *client) randCategory() int64 { return 1 + c.e.kernel.Rand().Int63n(c.e.cfg.Categories) }
func (c *client) randRegion() int64   { return 1 + c.e.kernel.Rand().Int63n(c.e.cfg.Regions) }

// issue submits the op to the frontend.
func (c *client) issue(op string, args any) {
	c.inFlight = true
	c.e.issued++
	issued := c.e.kernel.Now()
	sid := c.sessionID()
	req := &Request{
		ClientID:  c.id,
		Op:        op,
		SessionID: sid,
		Args:      args,
		Issued:    issued,
		Ctx:       context.Background(),
	}
	req.Complete = func(resp Response) {
		c.inFlight = false
		c.complete(op, issued, resp)
	}
	c.e.frontend.Submit(req)
}

// complete handles the outcome, performs Taw accounting, and schedules
// the next step after a think time.
func (c *client) complete(op string, issued time.Duration, resp Response) {
	now := c.e.kernel.Now()
	info, _ := ebid.Info(op)
	ok := resp.OK() && !looksFaulty(resp.Body)
	c.action = append(c.action, metrics.Op{
		Start: issued,
		End:   now,
		Name:  op,
		Group: info.Group,
		OK:    ok,
	})
	if !ok {
		c.failed = true
		if c.e.onFailure != nil {
			c.e.onFailure(c.id, op, resp)
		}
		// A failed action aborts any in-progress flow and, on session
		// loss, sends the user back to the login page (where a fresh
		// session id is assigned).
		c.closeAction(true)
		c.pending = ""
		if errors.Is(resp.Err, ebid.ErrNotLoggedIn) || c.phase == phaseFlow {
			c.phase = phaseStart
		}
		if c.phase == phaseFlow {
			c.phase = phaseBrowsing
		}
	} else {
		if info.CommitPoint || len(c.action) >= maxActionLen && c.phase != phaseFlow {
			c.closeAction(false)
		}
	}
	if c.e.stopped {
		return
	}
	think := c.e.kernel.Exponential(c.e.cfg.ThinkMean, thinkCap)
	c.e.kernel.Schedule(think, c.step)
}

// closeAction finalizes the current action; failed marks it (and all of
// its ops, retroactively) as bad Taw.
func (c *client) closeAction(failed bool) {
	if len(c.action) == 0 {
		c.failed = false
		return
	}
	if c.e.recorder != nil {
		c.e.recorder.Action(c.action, failed || c.failed)
	}
	c.action = nil
	c.failed = false
}

// looksFaulty is the client-side keyword scan: received HTML is searched
// for keywords indicative of failure.
func looksFaulty(body string) bool {
	for _, kw := range []string{"exception", "failed", "error"} {
		if strings.Contains(strings.ToLower(body), kw) {
			return true
		}
	}
	return false
}

// Errors recognized across package boundaries.
var errKilled = errors.New("workload: request killed by recovery")

// KilledError returns the sentinel used by frontends to fail requests
// whose shepherds were destroyed by a microreboot.
func KilledError() error { return errKilled }
