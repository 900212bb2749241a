// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of scheduled
// events. Experiments built on the kernel are exactly reproducible: given
// the same seed and the same sequence of Schedule calls, the event order
// and all random draws are identical across runs. This is the substitute
// substrate for the paper's physical testbed: a 40-minute experiment
// timeline executes in milliseconds of wall-clock time while preserving
// the timing relationships that drive the results.
//
// Events scheduled for the same virtual instant fire in the order they
// were scheduled (FIFO tie-breaking by sequence number), which keeps the
// simulation deterministic even under heavy event fan-out.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Event is a callback scheduled to run at a virtual instant.
type Event func()

// scheduled is an entry in the kernel's event heap.
type scheduled struct {
	at    time.Duration // virtual time since kernel start
	seq   uint64        // FIFO tie-breaker for equal timestamps
	fn    Event
	index int // heap index, maintained by heap.Interface
	dead  bool
}

// eventHeap orders events by (at, seq).
type eventHeap []*scheduled

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*scheduled)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	k  *Kernel
	ev *scheduled
}

// Stop cancels the timer. It reports whether the event had not yet fired.
// Stopping an already-fired or already-stopped timer is a no-op.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.dead {
		return false
	}
	if t.ev.index < 0 { // already popped and executed
		t.ev.dead = true
		return false
	}
	t.ev.dead = true
	heap.Remove(&t.k.events, t.ev.index)
	return true
}

// Kernel is a single-threaded discrete-event scheduler with a virtual
// clock. It is not safe for concurrent use: all event callbacks run on the
// goroutine that calls Run/Step, which is the intended usage.
type Kernel struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	rng    *rand.Rand
	// processed counts events executed, for diagnostics and test budgets.
	processed uint64
	// limit guards against runaway simulations; 0 means unlimited.
	limit uint64
}

// NewKernel returns a kernel whose random source is seeded with seed.
// The virtual clock starts at zero.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (duration since kernel start).
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source. All stochastic
// decisions in a simulation must draw from this source to preserve
// reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed reports how many events have executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// SetEventLimit installs a hard cap on the number of events Run will
// execute, as a guard against accidental unbounded simulations. Zero
// removes the cap.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// Pending reports how many events are waiting in the queue.
func (k *Kernel) Pending() int { return len(k.events) }

// Schedule arranges for fn to run after delay d of virtual time. Negative
// delays are treated as zero (run at the current instant, after events
// already scheduled for this instant). It returns a Timer that can cancel
// the event.
func (k *Kernel) Schedule(d time.Duration, fn Event) *Timer {
	if fn == nil {
		panic("sim: Schedule called with nil event")
	}
	if d < 0 {
		d = 0
	}
	ev := &scheduled{at: k.now + d, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.events, ev)
	return &Timer{k: k, ev: ev}
}

// ScheduleAt arranges for fn to run at absolute virtual time t. Times in
// the past are clamped to now.
func (k *Kernel) ScheduleAt(t time.Duration, fn Event) *Timer {
	return k.Schedule(t-k.now, fn)
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	for len(k.events) > 0 {
		ev := heap.Pop(&k.events).(*scheduled)
		if ev.dead {
			continue
		}
		if ev.at < k.now {
			panic(fmt.Sprintf("sim: event scheduled at %v but clock already at %v", ev.at, k.now))
		}
		k.now = ev.at
		k.processed++
		ev.fn()
		return true
	}
	return false
}

// RunUntil executes events until the virtual clock would pass deadline or
// the queue empties. Events scheduled exactly at deadline do execute. On
// return the clock is set to deadline if it had not already advanced past
// it, so successive RunUntil calls compose naturally.
func (k *Kernel) RunUntil(deadline time.Duration) {
	for len(k.events) > 0 {
		if k.limit > 0 && k.processed >= k.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", k.limit, k.now))
		}
		next := k.peek()
		if next.at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

// Drain executes events until the queue is empty. Use with care: a
// simulation with self-rescheduling processes never drains.
func (k *Kernel) Drain() {
	for k.Step() {
		if k.limit > 0 && k.processed >= k.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", k.limit, k.now))
		}
	}
}

func (k *Kernel) peek() *scheduled {
	// Dead events may be sitting at the top; skip them lazily.
	for len(k.events) > 0 && k.events[0].dead {
		heap.Pop(&k.events)
	}
	if len(k.events) == 0 {
		return &scheduled{at: 1<<62 - 1}
	}
	return k.events[0]
}

// Exponential draws from an exponential distribution with the given mean,
// optionally capped (cap <= 0 means uncapped). This matches the TPC-W
// think-time model used by the paper's client emulator: exponential with a
// mean of 7 s, capped at 70 s.
func (k *Kernel) Exponential(mean, capAt time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := time.Duration(k.rng.ExpFloat64() * float64(mean))
	if capAt > 0 && d > capAt {
		d = capAt
	}
	return d
}

// Uniform draws a duration uniformly from [lo, hi).
func (k *Kernel) Uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(k.rng.Int63n(int64(hi-lo)))
}

// Normal draws from a normal distribution with the given mean and standard
// deviation, clamped at zero so it can be used directly as a service time.
func (k *Kernel) Normal(mean, stddev time.Duration) time.Duration {
	d := time.Duration(k.rng.NormFloat64()*float64(stddev) + float64(mean))
	if d < 0 {
		d = 0
	}
	return d
}
