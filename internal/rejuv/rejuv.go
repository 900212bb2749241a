// Package rejuv implements the microrejuvenation service of Section 6.4:
// a server-side service that watches available JVM memory and, when it
// drops below a low watermark (Malarm), microreboots components in a
// rolling fashion — ordered by how much memory each component's last µRB
// released — until availability exceeds a high watermark (Msufficient).
// If rebooting every component is not enough, the whole process is
// restarted, exactly as the paper's service falls back.
package rejuv

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// Heap models the JVM heap: fixed size, a baseline in use by the server
// itself, component leaks tracked by the containers, and an optional
// extra source (leaks outside the application).
type Heap struct {
	Size     int64
	Baseline int64
	server   *core.Server
	extra    func() int64
}

// NewHeap builds a heap model over the server's containers. extra may be
// nil.
func NewHeap(size, baseline int64, server *core.Server, extra func() int64) *Heap {
	return &Heap{Size: size, Baseline: baseline, server: server, extra: extra}
}

// Available returns the modeled free memory.
func (h *Heap) Available() int64 {
	used := h.Baseline
	for _, name := range h.server.Components() {
		c, err := h.server.Container(name)
		if err != nil {
			continue
		}
		used += c.LeakedBytes()
	}
	if h.extra != nil {
		used += h.extra()
	}
	avail := h.Size - used
	if avail < 0 {
		avail = 0
	}
	return avail
}

// Config parameterizes the rejuvenation service. The paper's experiment
// uses a 1 GB heap with Malarm at 35% and Msufficient at 80%.
type Config struct {
	Malarm      int64
	Msufficient int64
	// Interval between memory checks (default 5 s).
	Interval time.Duration
	// UseProcessRestart switches the service to whole-JVM rejuvenation
	// (the paper's baseline comparison).
	UseProcessRestart bool
}

// Service is the rejuvenation service for one node.
type Service struct {
	kernel *sim.Kernel
	node   recovery.Rebooter
	heap   *Heap
	server *core.Server
	cfg    Config

	// released remembers how much memory each recovery group's last µRB
	// released; the candidate list is kept sorted by it, descending.
	released map[string]int64

	// Samples records (time, available) pairs for the Figure 6 plot.
	Samples []Sample
	// Rejuvenations counts rolling-µRB episodes; ProcessRestarts counts
	// JVM-level rejuvenations.
	Rejuvenations   int
	ProcessRestarts int
	// ComponentReboots counts individual group µRBs performed.
	ComponentReboots int

	rejuvenating bool
	stopped      bool
}

// Sample is one memory observation.
type Sample struct {
	At        time.Duration
	Available int64
}

// NewService builds a rejuvenation service.
func NewService(k *sim.Kernel, node recovery.Rebooter, server *core.Server, heap *Heap, cfg Config) *Service {
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Second
	}
	return &Service{
		kernel:   k,
		node:     node,
		heap:     heap,
		server:   server,
		cfg:      cfg,
		released: map[string]int64{},
	}
}

// Start begins periodic memory checks.
func (s *Service) Start() { s.kernel.Schedule(s.cfg.Interval, s.tick) }

// Stop halts the service.
func (s *Service) Stop() { s.stopped = true }

func (s *Service) tick() {
	if s.stopped {
		return
	}
	avail := s.heap.Available()
	s.Samples = append(s.Samples, Sample{At: s.kernel.Now(), Available: avail})
	if !s.rejuvenating && avail < s.cfg.Malarm {
		s.rejuvenating = true
		if s.cfg.UseProcessRestart {
			s.processRejuvenate()
		} else {
			s.microRejuvenate(s.candidates(), 0)
		}
	}
	s.kernel.Schedule(s.cfg.Interval, s.tick)
}

// candidates returns recovery-group representatives sorted by expected
// released memory (descending), with never-measured groups last in
// deterministic order — the paper's self-sorting candidate list.
func (s *Service) candidates() []string {
	seen := map[string]bool{}
	var groups []string
	for _, name := range s.server.Components() {
		g, err := s.server.RecoveryGroup(name)
		if err != nil || len(g) == 0 {
			continue
		}
		rep := g[0]
		if !seen[rep] {
			seen[rep] = true
			groups = append(groups, rep)
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		return s.released[groups[i]] > s.released[groups[j]]
	})
	return groups
}

// microRejuvenate reboots candidates one at a time until memory recovers.
func (s *Service) microRejuvenate(cands []string, idx int) {
	if s.stopped {
		s.rejuvenating = false
		return
	}
	if s.heap.Available() >= s.cfg.Msufficient {
		s.rejuvenating = false
		s.Rejuvenations++
		return
	}
	if idx >= len(cands) {
		// Every component rebooted and still below threshold: restart
		// the whole JVM.
		s.processRejuvenate()
		return
	}
	rep := cands[idx]
	rb, err := s.node.Microreboot(rep)
	if err != nil {
		s.rejuvenating = false
		return
	}
	s.ComponentReboots++
	s.released[rep] = rb.FreedBytes
	s.kernel.Schedule(rb.Duration(), func() {
		s.Samples = append(s.Samples, Sample{At: s.kernel.Now(), Available: s.heap.Available()})
		s.microRejuvenate(cands, idx+1)
	})
}

// processRejuvenate restarts the JVM process.
func (s *Service) processRejuvenate() {
	rb, err := s.node.RebootScope(core.ScopeProcess)
	if err != nil {
		s.rejuvenating = false
		return
	}
	s.ProcessRestarts++
	s.kernel.Schedule(rb.Duration(), func() {
		s.rejuvenating = false
		s.Rejuvenations++
		s.Samples = append(s.Samples, Sample{At: s.kernel.Now(), Available: s.heap.Available()})
	})
}
