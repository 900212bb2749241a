// Package metrics implements the evaluation metrics from the microreboot
// paper, chiefly action-weighted throughput (Taw).
//
// Taw views a user session as a sequence of actions; each action is a
// sequence of operations (HTTP requests) culminating in a commit point. An
// action succeeds or fails atomically: if any operation fails, every
// operation in the action is retroactively marked failed ("bad Taw");
// otherwise all count as "good Taw". The recorder keeps per-second buckets
// of good and bad operations so experiments can plot the same timelines as
// Figures 1, 2 and 4 of the paper.
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// Op describes one completed operation (one HTTP request) for Taw
// accounting purposes.
type Op struct {
	Start time.Duration // virtual time the request entered the system
	End   time.Duration // virtual time the response (or failure) was observed
	Name  string        // end-user operation, e.g. "ViewItem"
	Group string        // functional group, e.g. "Browse/View"
	OK    bool          // whether this individual operation succeeded
}

// Latency returns the response time of the operation.
func (o Op) Latency() time.Duration { return o.End - o.Start }

// Recorder accumulates Taw and latency statistics over a run. The zero
// value is not usable; construct with NewRecorder.
type Recorder struct {
	bucket time.Duration

	good []int64 // operations of successful actions, by completion bucket
	bad  []int64 // operations of failed actions, by completion bucket

	latSum   []time.Duration // sum of latencies per bucket (successful ops only)
	latCount []int64

	totalGoodOps   int64
	totalBadOps    int64
	goodActions    int64
	failedActions  int64
	overThreshold  int64
	threshold      time.Duration
	latencies      *Histogram
	groupBad       map[string][]span // failed-request processing spans per group
	firstFail      time.Duration
	haveFirstFail  bool
	lastCompletion time.Duration
}

type span struct{ from, to time.Duration }

// NewRecorder returns a recorder with the given bucket width (typically one
// second of virtual time, matching the paper's plots) and slow-request
// threshold (the paper uses 8 s, the common web-abandonment limit).
func NewRecorder(bucket, slowThreshold time.Duration) *Recorder {
	if bucket <= 0 {
		panic("metrics: bucket width must be positive")
	}
	return &Recorder{
		bucket:    bucket,
		threshold: slowThreshold,
		latencies: NewHistogram(),
		groupBad:  map[string][]span{},
	}
}

func (r *Recorder) bucketOf(t time.Duration) int {
	if t < 0 {
		t = 0
	}
	return int(t / r.bucket)
}

func (r *Recorder) grow(i int) {
	for len(r.good) <= i {
		r.good = append(r.good, 0)
		r.bad = append(r.bad, 0)
		r.latSum = append(r.latSum, 0)
		r.latCount = append(r.latCount, 0)
	}
}

// Action records a completed action. failed indicates whether the action as
// a whole failed (any operation failed or the commit point was not
// reached); all of its operations are then counted as bad Taw regardless of
// their individual outcomes, mirroring the paper's retroactive marking.
func (r *Recorder) Action(ops []Op, failed bool) {
	if failed {
		r.failedActions++
	} else {
		r.goodActions++
	}
	for _, op := range ops {
		i := r.bucketOf(op.End)
		r.grow(i)
		if op.End > r.lastCompletion {
			r.lastCompletion = op.End
		}
		if failed {
			r.bad[i]++
			r.totalBadOps++
			if !r.haveFirstFail || op.End < r.firstFail {
				r.firstFail, r.haveFirstFail = op.End, true
			}
			if !op.OK || op.Latency() > r.threshold && r.threshold > 0 {
				// Track the unavailability window for the op's group.
				r.groupBad[op.Group] = append(r.groupBad[op.Group], span{op.Start, op.End})
			}
		} else {
			r.good[i]++
			r.totalGoodOps++
			r.latSum[i] += op.Latency()
			r.latCount[i]++
			r.latencies.Observe(op.Latency())
			if r.threshold > 0 && op.Latency() > r.threshold {
				r.overThreshold++
			}
		}
	}
}

// GoodOps and BadOps return total operation counts.
func (r *Recorder) GoodOps() int64 { return r.totalGoodOps }

// BadOps returns the number of operations belonging to failed actions.
func (r *Recorder) BadOps() int64 { return r.totalBadOps }

// GoodActions returns the number of actions that succeeded atomically.
func (r *Recorder) GoodActions() int64 { return r.goodActions }

// FailedActions returns the number of actions marked failed.
func (r *Recorder) FailedActions() int64 { return r.failedActions }

// OverThreshold returns how many successful operations exceeded the slow
// threshold.
func (r *Recorder) OverThreshold() int64 { return r.overThreshold }

// Latencies exposes the latency histogram of successful operations.
func (r *Recorder) Latencies() *Histogram { return r.latencies }

// Buckets returns the per-bucket good and bad Taw series, both of length
// Len. The i'th entry covers virtual time [i*bucket, (i+1)*bucket).
func (r *Recorder) Buckets() (good, bad []int64) { return r.good, r.bad }

// MeanLatencySeries returns the average successful-request latency per
// bucket; buckets with no completions report zero.
func (r *Recorder) MeanLatencySeries() []time.Duration {
	out := make([]time.Duration, len(r.latSum))
	for i := range r.latSum {
		if r.latCount[i] > 0 {
			out[i] = r.latSum[i] / time.Duration(r.latCount[i])
		}
	}
	return out
}

// GoodputOver returns the mean good Taw (ops/sec) over the window [from,
// to) of virtual time.
func (r *Recorder) GoodputOver(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	lo, hi := r.bucketOf(from), r.bucketOf(to)
	var sum int64
	for i := lo; i < hi && i < len(r.good); i++ {
		sum += r.good[i]
	}
	return float64(sum) / (to - from).Seconds()
}

// Unavailability returns, for each functional group, the merged spans of
// time during which some request of that group eventually failed — the
// gaps plotted in Figure 2.
func (r *Recorder) Unavailability() map[string][]Interval {
	out := map[string][]Interval{}
	for g, spans := range r.groupBad {
		out[g] = mergeSpans(spans)
	}
	return out
}

// Interval is a half-open window of virtual time.
type Interval struct{ From, To time.Duration }

// Length returns the duration of the interval.
func (iv Interval) Length() time.Duration { return iv.To - iv.From }

func (iv Interval) String() string {
	return fmt.Sprintf("[%v,%v)", iv.From, iv.To)
}

func mergeSpans(spans []span) []Interval {
	if len(spans) == 0 {
		return nil
	}
	sorted := make([]span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].from < sorted[j].from })
	var out []Interval
	cur := Interval{sorted[0].from, sorted[0].to}
	for _, s := range sorted[1:] {
		if s.from <= cur.To {
			if s.to > cur.To {
				cur.To = s.to
			}
			continue
		}
		out = append(out, cur)
		cur = Interval{s.from, s.to}
	}
	return append(out, cur)
}
