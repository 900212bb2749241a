// Package detect implements the two fault detectors of Section 4.
//
// The first detector is simple and fast, running client-side: it flags
// network-level errors, HTTP 4xx/5xx analogs, failure keywords in the
// returned HTML, and application-specific problems (negative item IDs,
// being prompted to log in when already logged in).
//
// The second detector is comparison-based: it submits each request in
// parallel to the instance under test and to a separate known-good
// instance, flagging any differences — the only detector able to identify
// complex failures such as surreptitious corruption of a bid's dollar
// amount.
package detect

import (
	"context"
	"regexp"
	"strings"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/workload"
)

// FailureType classifies what a detector saw.
type FailureType string

// Failure classifications.
const (
	None         FailureType = ""
	NetworkError FailureType = "network-error"
	HTTPError    FailureType = "http-error"
	KeywordMatch FailureType = "keyword"
	AppSpecific  FailureType = "app-specific"
	Discrepancy  FailureType = "comparison-mismatch"
)

// Verdict is a detector's judgment of one response.
type Verdict struct {
	Faulty bool
	Type   FailureType
	Detail string
}

var negativeID = regexp.MustCompile(`\b(user|item|bid) -\d+`)

// ClientSide is the fast first-line detector.
type ClientSide struct{}

// Classify judges a response. loggedIn tells the detector whether the
// client believes it has a session (to catch spurious login prompts).
func (ClientSide) Classify(op string, resp workload.Response, loggedIn bool) Verdict {
	if resp.Err != nil {
		msg := resp.Err.Error()
		if strings.Contains(msg, "connection") {
			return Verdict{Faulty: true, Type: NetworkError, Detail: msg}
		}
		return Verdict{Faulty: true, Type: HTTPError, Detail: msg}
	}
	lower := strings.ToLower(resp.Body)
	for _, kw := range []string{"exception", "failed", "error"} {
		if strings.Contains(lower, kw) {
			return Verdict{Faulty: true, Type: KeywordMatch, Detail: kw}
		}
	}
	// Application-specific checks.
	if negativeID.MatchString(resp.Body) {
		return Verdict{Faulty: true, Type: AppSpecific, Detail: "negative id in response"}
	}
	if loggedIn && strings.Contains(lower, "please log in") {
		return Verdict{Faulty: true, Type: AppSpecific, Detail: "login prompt while logged in"}
	}
	return Verdict{}
}

// Comparison is the truth-comparing detector: it executes the same
// request against a known-good application instance and flags any
// difference. Timing-related nondeterminism is handled by normalizing
// volatile fields before comparing, as the paper's detector required
// "certain tweaks ... to account for timing-related nondeterminism".
type Comparison struct {
	// Good is the known-good instance on another machine.
	Good *ebid.App
}

var volatile = regexp.MustCompile(`\d+\.\d\d`)

// normalize strips volatile content (amounts that legitimately differ by
// interleaving) from a body before comparison.
func normalize(body string) string {
	return volatile.ReplaceAllString(body, "#")
}

// Check replays the call on the known-good instance and compares.
func (c *Comparison) Check(call *core.Call, resp workload.Response) Verdict {
	replay := &core.Call{Op: call.Op, SessionID: call.SessionID, Args: call.Args}
	goodBody, goodErr := c.Good.Execute(context.Background(), replay)
	if (goodErr == nil) != (resp.Err == nil) {
		return Verdict{Faulty: true, Type: Discrepancy,
			Detail: "error status differs from known-good instance"}
	}
	if goodErr == nil && normalize(string(goodBody)) != normalize(resp.Body) {
		return Verdict{Faulty: true, Type: Discrepancy,
			Detail: "body differs from known-good instance"}
	}
	return Verdict{}
}
