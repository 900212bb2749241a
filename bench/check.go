package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ebid"
	"repro/internal/store/db"
)

// bidLedger is the client's own record of which bids the system
// acknowledged. The crash-only contract says an acknowledged write
// survives anything, SIGKILL included; the ledger is what that claim is
// checked against.
type bidLedger struct {
	mu    sync.Mutex
	acked map[int64]int // CommitBids answered with a validated 200, per item
	tried map[int64]int // CommitBids sent at all, per item

	seed *db.DB // the seed dataset, loaded in-process, for the bids an item starts with
}

func newBidLedger(ds dataset) (*bidLedger, error) {
	d := db.New(nil)
	cfg := ebid.DefaultDataset()
	cfg.Users, cfg.Items = int(ds.users), int(ds.items)
	if err := ebid.LoadDataset(d, cfg); err != nil {
		return nil, fmt.Errorf("loading the seed dataset: %w", err)
	}
	return &bidLedger{acked: map[int64]int{}, tried: map[int64]int{}, seed: d}, nil
}

func (l *bidLedger) record(item int64, ok bool) {
	l.mu.Lock()
	l.tried[item]++
	if ok {
		l.acked[item]++
	}
	l.mu.Unlock()
}

const maxViolations = 10 // a systematic fault would otherwise fill the report with thousands of lines

// seedBids is how many bid rows the dataset loader gave the item.
func (l *bidLedger) seedBids(item int64) (int, error) {
	tx, err := l.seed.Begin()
	if err != nil {
		return 0, err
	}
	defer func() { _ = tx.Abort() }() // read-only; nothing to keep
	keys, err := tx.Lookup(ebid.TblBids, "item", item)
	return len(keys), err
}

// verify compares the ledger with what the system shows. history returns
// the number of bids ViewBidHistory lists for an item on each backend (the
// fleet's backends each own a database, so a bid shows on the one that took
// it). The acknowledged
// counts are snapshotted before any query, so the check is sound while
// load continues: both sides only grow. At most limit items are checked
// (0: all). With final set, load has stopped and the system may not show
// more bids than were ever sent either.
func (l *bidLedger) verify(history func(item int64) ([]int, error), limit int, final bool) []string {
	type want struct {
		item         int64
		acked, tried int
	}
	l.mu.Lock()
	wants := make([]want, 0, len(l.acked))
	for item, n := range l.acked {
		wants = append(wants, want{item, n, l.tried[item]})
	}
	l.mu.Unlock()
	sort.Slice(wants, func(i, j int) bool { return wants[i].item < wants[j].item })
	if limit > 0 && len(wants) > limit {
		// A deterministic spread over the whole set.
		step := len(wants) / limit
		picked := wants[:0:0]
		for i := 0; i < len(wants) && len(picked) < limit; i += step {
			picked = append(picked, wants[i])
		}
		wants = picked
	}
	var bad []string
	for _, w := range wants {
		if len(bad) == maxViolations {
			bad = append(bad, "… and possibly more; stopped checking")
			break
		}
		base, err := l.seedBids(w.item)
		if err != nil {
			bad = append(bad, fmt.Sprintf("item %d: seed dataset: %v", w.item, err))
			continue
		}
		counts, err := history(w.item)
		got := 0 // bids beyond the seed's, over all backends
		for _, c := range counts {
			got += c - base
		}
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("item %d: reading bid history: %v", w.item, err))
		case got < w.acked:
			bad = append(bad, fmt.Sprintf("item %d: %d acknowledged bids but history shows %d: an acknowledged write was lost",
				w.item, w.acked, got))
		case final && got > w.tried:
			bad = append(bad, fmt.Sprintf("item %d: history shows %d new bids but only %d were ever sent", w.item, got, w.tried))
		}
	}
	return bad
}

// parseBidHistory reads N from "<html>item 7 bid history: N bids</html>".
func parseBidHistory(body string) (int, error) {
	_, rest, ok := strings.Cut(body, "bid history: ")
	if !ok {
		return 0, fmt.Errorf("unexpected body %q", body)
	}
	num, _, _ := strings.Cut(rest, " ")
	return strconv.Atoi(num)
}

// checkSessionsSurvive is the microreboot safety claim on session state:
// while only components are rebooted, no user who logged in (and has not
// logged out) may be told the session is gone. A 401 to a user whose login
// itself was refused is the client's own doing and does not count.
func checkSessionsSurvive(res []opResult, firstRestart time.Duration) []string {
	if n := lostSessionsBefore(res, firstRestart); n > 0 {
		return []string{fmt.Sprintf("%d logged-in users got a 401 before any process was restarted: session state did not survive a microreboot", n)}
	}
	return nil
}

// checkBodies reports 200s that carried the wrong page.
func checkBodies(phases ...phaseStats) []string {
	n := 0
	for _, p := range phases {
		n += p.badBody
	}
	if n > 0 {
		return []string{fmt.Sprintf("%d responses were a 200 with the wrong or a faulty body", n)}
	}
	return nil
}
