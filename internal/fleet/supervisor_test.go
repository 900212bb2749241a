package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"
)

// recorder collects supervisor events thread-safely.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

func (r *recorder) count(k EventKind) int {
	n := 0
	for _, e := range r.snapshot() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// waitFor polls cond until true or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCrashRespawnBackoff: a child that dies instantly is respawned
// with exponentially growing backoff, and every crash is accounted.
func TestCrashRespawnBackoff(t *testing.T) {
	rec := &recorder{}
	s := New(rec.record)
	err := s.Add(ChildSpec{
		Name: "crasher", Path: "/bin/sh", Args: []string{"-c", "exit 3"},
		BackoffMin: 20 * time.Millisecond, BackoffMax: 200 * time.Millisecond,
		CrashLoopWindow: time.Minute, CrashLoopLimit: 1000,
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	defer s.Stop()

	waitFor(t, 5*time.Second, "3 respawns", func() bool { return rec.count(EventStarted) >= 4 })

	var backoffs []time.Duration
	for _, e := range rec.snapshot() {
		if e.Kind == EventRespawn {
			backoffs = append(backoffs, e.Backoff)
		}
		if e.Kind == EventExited && e.Code != 3 {
			t.Errorf("exit code = %d, want 3", e.Code)
		}
	}
	if len(backoffs) < 3 {
		t.Fatalf("saw %d respawn events, want >= 3", len(backoffs))
	}
	for i := 0; i < 2; i++ {
		if backoffs[i+1] < backoffs[i] {
			t.Errorf("backoff shrank: %v then %v", backoffs[i], backoffs[i+1])
		}
	}
	if backoffs[0] != 20*time.Millisecond {
		t.Errorf("first backoff = %v, want 20ms", backoffs[0])
	}
	st := s.Status()[0]
	if st.Restarts < 3 {
		t.Errorf("Restarts = %d, want >= 3", st.Restarts)
	}
}

// TestCrashLoopEscalation: crashing more than CrashLoopLimit times
// inside the window emits the escalation event and pins backoff at max.
func TestCrashLoopEscalation(t *testing.T) {
	rec := &recorder{}
	s := New(rec.record)
	err := s.Add(ChildSpec{
		Name: "looper", Path: "/bin/sh", Args: []string{"-c", "exit 1"},
		BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		CrashLoopWindow: time.Minute, CrashLoopLimit: 2,
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	defer s.Stop()

	waitFor(t, 5*time.Second, "crash-loop event", func() bool { return rec.count(EventCrashLoop) >= 1 })
	for _, e := range rec.snapshot() {
		if e.Kind == EventCrashLoop && e.Crashes <= 2 {
			t.Errorf("escalated at %d crashes, want > limit (2)", e.Crashes)
		}
	}
}

// TestStopDoesNotRespawn: Stop kills a child that would outlive a
// SIGTERM, and a deliberate stop is not a crash: nothing respawns it.
func TestStopDoesNotRespawn(t *testing.T) {
	rec := &recorder{}
	s := New(rec.record)
	err := s.Add(ChildSpec{
		Name: "stubborn", Path: "/bin/sh",
		Args:       []string{"-c", `trap "" TERM; while :; do sleep 0.05; done`},
		BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	pid := s.Status()[0].Pid
	s.Stop()
	if err := syscall.Kill(pid, 0); err == nil {
		t.Errorf("pid %d is still alive after Stop", pid)
	}
	time.Sleep(50 * time.Millisecond) // ten backoffs: a respawn would show
	if n := rec.count(EventStarted); n != 1 {
		t.Errorf("started events = %d, want 1 (no respawn after deliberate stop)", n)
	}
	if st := s.Status()[0]; !st.Stopped {
		t.Error("child not marked stopped")
	}
}

// TestRestartDeliberate: Restart bumps the generation without charging
// a crash, and reports the downtime.
func TestRestartDeliberate(t *testing.T) {
	rec := &recorder{}
	s := New(rec.record)
	err := s.Add(ChildSpec{
		Name: "steady", Path: "/bin/sh", Args: []string{"-c", "sleep 60"},
		BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	defer s.Stop()

	down, err := s.Restart("steady")
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if down <= 0 {
		t.Errorf("downtime = %v, want > 0", down)
	}
	st := s.Status()[0]
	if st.Gen != 2 {
		t.Errorf("gen = %d, want 2", st.Gen)
	}
	if st.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0 (deliberate restart is not a crash)", st.Restarts)
	}
	if !st.Ready {
		t.Error("child not ready after restart")
	}
}

// TestKillRespawns: chaos SIGKILL is treated as a crash — the child
// comes back on its own with crash accounting.
func TestKillRespawns(t *testing.T) {
	rec := &recorder{}
	s := New(rec.record)
	err := s.Add(ChildSpec{
		Name: "victim", Path: "/bin/sh", Args: []string{"-c", "sleep 60"},
		BackoffMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	defer s.Stop()

	if err := s.Kill("victim"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	waitFor(t, 5*time.Second, "respawn after SIGKILL", func() bool {
		st := s.Status()[0]
		return st.Gen == 2 && st.Ready
	})
	for _, e := range rec.snapshot() {
		if e.Kind == EventExited && e.Code != -1 {
			t.Errorf("exit code = %d, want -1 (signal death)", e.Code)
		}
	}
	if st := s.Status()[0]; st.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", st.Restarts)
	}
}

// TestReadyURLGatesReadiness: with a ReadyURL configured the child is
// not ready until the URL answers 200.
func TestReadyURLGatesReadiness(t *testing.T) {
	var ok sync.Map // flips the probe target to 200
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, up := ok.Load("up"); up {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer probe.Close()

	rec := &recorder{}
	s := New(rec.record)
	err := s.Add(ChildSpec{
		Name: "gated", Path: "/bin/sh", Args: []string{"-c", "sleep 60"},
		ReadyURL: probe.URL, ReadyTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	defer s.Stop()

	time.Sleep(100 * time.Millisecond)
	if s.Ready("gated") {
		t.Fatal("ready before the probe URL answered 200")
	}
	ok.Store("up", true)
	waitFor(t, 2*time.Second, "readiness", func() bool { return s.Ready("gated") })
	if rec.count(EventReady) != 1 {
		t.Errorf("ready events = %d, want 1", rec.count(EventReady))
	}
}
