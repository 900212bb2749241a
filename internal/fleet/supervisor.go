// Package fleet runs a real multi-process eBid fleet: a Supervisor that
// spawns and resurrects ebid-server OS processes, and a Router that
// fronts them as a reverse-proxy load balancer reusing the cluster
// routing policies. Together they make the paper's node-scope recovery
// literal — "reboot the node" is SIGKILL + re-exec of a process, not a
// state reset inside one address space.
package fleet

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// Defaults for ChildSpec knobs left zero.
const (
	DefaultReadyTimeout    = 15 * time.Second
	DefaultBackoffMin      = 100 * time.Millisecond
	DefaultBackoffMax      = 5 * time.Second
	DefaultCrashLoopWindow = 30 * time.Second
	DefaultCrashLoopLimit  = 5
	readyPollInterval      = 25 * time.Millisecond
)

// ChildSpec describes one supervised process.
type ChildSpec struct {
	// Name identifies the child in events, status and actuator calls
	// (the fleet node name, e.g. "node0").
	Name string
	// Path and Args are the executable and its arguments (argv[1:]).
	Path string
	Args []string
	// ReadyURL, when set, is polled with GET until it answers 200 —
	// only then is the child Ready (and Restart returns). Empty means
	// ready as soon as the process starts.
	ReadyURL string
	// ReadyTimeout bounds the ready poll after each (re)spawn.
	ReadyTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential respawn backoff after
	// crashes. A deliberate Restart respawns immediately.
	BackoffMin, BackoffMax time.Duration
	// CrashLoopWindow/CrashLoopLimit: more than CrashLoopLimit crashes
	// inside CrashLoopWindow emits EventCrashLoop (the escalation
	// signal — the supervisor keeps trying at BackoffMax, but the
	// operator or control plane should widen the recovery scope).
	CrashLoopWindow time.Duration
	CrashLoopLimit  int
}

func (s *ChildSpec) withDefaults() ChildSpec {
	c := *s
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = DefaultReadyTimeout
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = DefaultBackoffMin
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.CrashLoopWindow <= 0 {
		c.CrashLoopWindow = DefaultCrashLoopWindow
	}
	if c.CrashLoopLimit <= 0 {
		c.CrashLoopLimit = DefaultCrashLoopLimit
	}
	return c
}

// EventKind enumerates supervisor lifecycle events.
type EventKind int

const (
	// EventStarted: a process (re)spawned; Pid and Gen are set.
	EventStarted EventKind = iota
	// EventReady: the ready URL answered 200 (or no URL configured).
	EventReady
	// EventExited: the process exited; ExitCode is set (-1 when killed
	// by signal).
	EventExited
	// EventRespawn: the supervisor is about to respawn a crashed child
	// after Backoff.
	EventRespawn
	// EventCrashLoop: crash frequency exceeded the spec's loop limit —
	// process-scope recovery is not converging, escalate.
	EventCrashLoop
)

// String implements fmt.Stringer for log lines.
func (k EventKind) String() string {
	switch k {
	case EventStarted:
		return "started"
	case EventReady:
		return "ready"
	case EventExited:
		return "exited"
	case EventRespawn:
		return "respawn"
	case EventCrashLoop:
		return "crash-loop"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one supervisor observation, delivered to the callback passed
// to New (synchronously, from the child's monitor goroutine).
type Event struct {
	Kind    EventKind
	Child   string
	Pid     int
	Gen     int // incarnation number, 1 on first start
	Code    int // EventExited: exit code, -1 if signal-killed
	Backoff time.Duration
	Crashes int // crashes inside the loop window (EventCrashLoop)
}

// ChildStatus is one child's externally visible state.
type ChildStatus struct {
	Name     string `json:"name"`
	Pid      int    `json:"pid"`
	Gen      int    `json:"gen"`
	Ready    bool   `json:"ready"`
	Restarts int    `json:"restarts"` // respawns after crashes (not deliberate restarts)
	Stopped  bool   `json:"stopped"`
}

// child is the supervisor-internal state of one spec.
type child struct {
	spec ChildSpec

	mu            sync.Mutex
	cmd           *exec.Cmd
	gen           int
	ready         bool
	restarts      int // crash respawns
	stopped       bool
	expectRestart bool // next exit is deliberate: respawn with no crash accounting
	crashes       []time.Time
	done          chan struct{} // closed when the monitor goroutine returns
}

// Supervisor owns a set of child processes and keeps them alive: each
// child gets a monitor goroutine that waits on the process, applies
// crash-respawn backoff, and republishes lifecycle events. It is the
// process-scope analogue of the application server's microreboot
// machinery one level down the recovery hierarchy.
type Supervisor struct {
	mu       sync.Mutex
	children map[string]*child
	events   func(Event)
	client   *http.Client
	stopping bool
}

// New builds a Supervisor. events may be nil; when set it receives every
// lifecycle event synchronously and must not block for long.
func New(events func(Event)) *Supervisor {
	if events == nil {
		events = func(Event) {}
	}
	return &Supervisor{
		children: map[string]*child{},
		events:   events,
		client:   &http.Client{Timeout: 500 * time.Millisecond},
	}
}

// Add spawns the child and begins supervising it.
func (s *Supervisor) Add(spec ChildSpec) error {
	if spec.Name == "" || spec.Path == "" {
		return fmt.Errorf("fleet: child spec needs Name and Path")
	}
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return fmt.Errorf("fleet: supervisor is stopping")
	}
	if _, dup := s.children[spec.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("fleet: duplicate child %q", spec.Name)
	}
	c := &child{spec: spec.withDefaults(), done: make(chan struct{})}
	s.children[spec.Name] = c
	s.mu.Unlock()

	if err := s.spawn(c); err != nil {
		s.mu.Lock()
		delete(s.children, spec.Name)
		s.mu.Unlock()
		close(c.done)
		return err
	}
	go s.monitor(c)
	return nil
}

// spawn starts one incarnation of c and kicks off the ready poll.
func (s *Supervisor) spawn(c *child) error {
	cmd := exec.Command(c.spec.Path, c.spec.Args...)
	// Each child leads its own process group so hard kills take the
	// whole tree — an orphaned grandchild is a leaked node.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fleet: start %s: %w", c.spec.Name, err)
	}
	c.mu.Lock()
	c.cmd = cmd
	c.gen++
	c.ready = c.spec.ReadyURL == ""
	gen := c.gen
	if c.stopped {
		// stopOne killed the previous incarnation while this one was
		// starting: it dies at once, and the monitor sees it stopped.
		_ = hardKill(cmd)
	}
	c.mu.Unlock()
	s.events(Event{Kind: EventStarted, Child: c.spec.Name, Pid: cmd.Process.Pid, Gen: gen})
	if c.spec.ReadyURL == "" {
		s.events(Event{Kind: EventReady, Child: c.spec.Name, Pid: cmd.Process.Pid, Gen: gen})
	} else {
		go s.pollReady(c, gen, cmd.Process.Pid)
	}
	return nil
}

// pollReady marks generation gen ready once its ReadyURL answers 200.
// It gives up silently when the generation changes underneath it (the
// process died; the monitor handles that).
func (s *Supervisor) pollReady(c *child, gen, pid int) {
	deadline := time.Now().Add(c.spec.ReadyTimeout)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(c.spec.ReadyURL)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.mu.Lock()
				stale := c.gen != gen
				if !stale {
					c.ready = true
				}
				c.mu.Unlock()
				if !stale {
					s.events(Event{Kind: EventReady, Child: c.spec.Name, Pid: pid, Gen: gen})
				}
				return
			}
		}
		c.mu.Lock()
		stale := c.gen != gen
		c.mu.Unlock()
		if stale {
			return
		}
		time.Sleep(readyPollInterval)
	}
}

// monitor is the per-child goroutine: wait for exit, decide crash vs
// deliberate, respawn with backoff, escalate on crash loops.
func (s *Supervisor) monitor(c *child) {
	defer close(c.done)
	backoff := c.spec.BackoffMin
	for {
		c.mu.Lock()
		cmd := c.cmd
		gen := c.gen
		c.mu.Unlock()

		err := cmd.Wait()
		code := exitCode(err)
		// Sweep the dead incarnation's process group: whatever it
		// leaves behind (a grandchild that outlived its parent's crash)
		// is an unsupervised remnant of a node that no longer exists.
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)

		c.mu.Lock()
		c.ready = false
		deliberate := c.expectRestart
		c.expectRestart = false
		stopped := c.stopped
		pid := cmd.Process.Pid
		c.mu.Unlock()
		s.events(Event{Kind: EventExited, Child: c.spec.Name, Pid: pid, Gen: gen, Code: code})

		if stopped {
			return
		}

		wait := time.Duration(0)
		if deliberate {
			backoff = c.spec.BackoffMin
		} else {
			now := time.Now()
			c.mu.Lock()
			c.restarts++
			c.crashes = append(c.crashes, now)
			keep := c.crashes[:0]
			for _, t := range c.crashes {
				if now.Sub(t) <= c.spec.CrashLoopWindow {
					keep = append(keep, t)
				}
			}
			c.crashes = keep
			looping := len(c.crashes) > c.spec.CrashLoopLimit
			nCrashes := len(c.crashes)
			c.mu.Unlock()
			if looping {
				s.events(Event{Kind: EventCrashLoop, Child: c.spec.Name, Gen: gen, Crashes: nCrashes})
				backoff = c.spec.BackoffMax
			}
			wait = backoff
			backoff *= 2
			if backoff > c.spec.BackoffMax {
				backoff = c.spec.BackoffMax
			}
		}
		if wait > 0 {
			s.events(Event{Kind: EventRespawn, Child: c.spec.Name, Gen: gen, Backoff: wait})
			time.Sleep(wait)
		}

		c.mu.Lock()
		stopped = c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		if err := s.spawn(c); err != nil {
			// Binary vanished or fork failed: treat as a crash and retry
			// at max backoff rather than abandoning the child.
			s.events(Event{Kind: EventRespawn, Child: c.spec.Name, Gen: gen, Backoff: c.spec.BackoffMax})
			time.Sleep(c.spec.BackoffMax)
			c.mu.Lock()
			stopped = c.stopped
			c.mu.Unlock()
			if stopped {
				return
			}
			if err := s.spawn(c); err != nil {
				return
			}
		}
	}
}

// exitCode extracts the exit status; -1 means killed by signal.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return -1
		}
		return ee.ExitCode()
	}
	return -1
}

// Kill SIGKILLs the named child (chaos injection). The monitor sees the
// death as a crash and respawns with backoff — exactly what an external
// fault would look like.
func (s *Supervisor) Kill(name string) error {
	c, err := s.child(name)
	if err != nil {
		return err
	}
	c.mu.Lock()
	cmd := c.cmd
	c.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("fleet: %s is not running", name)
	}
	return hardKill(cmd)
}

// hardKill SIGKILLs the child's whole process group (it is the group
// leader), falling back to the process alone.
func hardKill(cmd *exec.Cmd) error {
	if err := syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL); err == nil {
		return nil
	}
	return cmd.Process.Kill()
}

// Restart performs a deliberate node reboot: SIGKILL the current
// incarnation, wait for the next one to come up ready, and report how
// long the node was effectively down. There is no gentler stop: the next
// incarnation recovers from the WAL, as after any crash. Deliberate
// restarts skip crash accounting and respawn without backoff.
func (s *Supervisor) Restart(name string) (time.Duration, error) {
	c, err := s.child(name)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	cmd := c.cmd
	oldGen := c.gen
	c.expectRestart = true
	c.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return 0, fmt.Errorf("fleet: %s is not running", name)
	}
	start := time.Now()
	if err := hardKill(cmd); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(c.spec.ReadyTimeout + 5*time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		up := c.gen > oldGen && c.ready
		c.mu.Unlock()
		if up {
			return time.Since(start), nil
		}
		time.Sleep(readyPollInterval)
	}
	return time.Since(start), fmt.Errorf("fleet: %s did not come back ready", name)
}

// stopOne retires one child for good: SIGKILL, then wait for its monitor.
func (s *Supervisor) stopOne(c *child) {
	c.mu.Lock()
	c.stopped = true
	cmd := c.cmd
	c.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = hardKill(cmd) // already gone is fine
	}
	<-c.done
}

// Stop kills every child and waits for all monitors to finish. The
// supervisor accepts no new children afterwards.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.stopping = true
	kids := make([]*child, 0, len(s.children))
	for _, c := range s.children {
		kids = append(kids, c)
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range kids {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			s.stopOne(c)
		}(c)
	}
	wg.Wait()
}

// Ready reports whether the named child's current incarnation is ready.
func (s *Supervisor) Ready(name string) bool {
	c, err := s.child(name)
	if err != nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready
}

// Status reports every child's state. Order is not guaranteed; callers
// sort if they need stable output.
func (s *Supervisor) Status() []ChildStatus {
	s.mu.Lock()
	kids := make([]*child, 0, len(s.children))
	for _, c := range s.children {
		kids = append(kids, c)
	}
	s.mu.Unlock()
	out := make([]ChildStatus, 0, len(kids))
	for _, c := range kids {
		c.mu.Lock()
		st := ChildStatus{
			Name: c.spec.Name, Gen: c.gen, Ready: c.ready,
			Restarts: c.restarts, Stopped: c.stopped,
		}
		if c.cmd != nil && c.cmd.Process != nil {
			st.Pid = c.cmd.Process.Pid
		}
		c.mu.Unlock()
		out = append(out, st)
	}
	return out
}

func (s *Supervisor) child(name string) (*child, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.children[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown child %q", name)
	}
	return c, nil
}
