package recovery

import (
	"time"

	"repro/internal/controlplane"
)

// The manager is the plane's recovery controller: failure signals become
// diagnosis reports, brick heartbeat loss becomes brick failure reports,
// and sampled comparison-detector discrepancies feed the same diagnosis
// (the paper's second detector finding complex failures the client-side
// checks miss). The monitors just publish; Report and ReportBrickFailure
// stay the direct entry points for hosts without a plane.
var _ controlplane.Controller = (*Manager)(nil)

// Name implements controlplane.Controller.
func (m *Manager) Name() string { return "recovery" }

// OnSignal implements controlplane.Controller: evidence is buffered,
// never acted on. OnSignal runs under the plane lock and must only
// observe; Report can synchronously trigger a recovery whose killed
// in-flight requests re-enter the plane (their failure monitors publish),
// so delivery is the act half and runs after the lock is released.
func (m *Manager) OnSignal(s controlplane.Signal) {
	switch s.Kind {
	case controlplane.SignalFailure:
		m.failures++
		m.pending = append(m.pending, Report{Op: s.Op, Kind: s.FailureKind})
	case controlplane.SignalBrickDead:
		m.brickFailures++
		m.pendingBricks = append(m.pendingBricks, s.Brick)
	case controlplane.SignalDiscrepancy:
		m.discrepancies++
		m.pending = append(m.pending, Report{Op: s.Op, Kind: "comparison-mismatch"})
	}
}

// Tick implements controlplane.Controller: buffered evidence drains into
// Report / ReportBrickFailure in the act phase. The manager runs its own
// timeline (grace windows, detection delays) on its kernel; detection
// latency gains at most one plane tick.
func (m *Manager) Tick(time.Duration) func() {
	if len(m.pending) == 0 && len(m.pendingBricks) == 0 {
		return nil
	}
	reports, bricks := m.pending, m.pendingBricks
	m.pending, m.pendingBricks = nil, nil
	return func() {
		for _, r := range reports {
			m.Report(r)
		}
		for _, b := range bricks {
			m.ReportBrickFailure(b)
		}
	}
}

// Status is the manager's operator snapshot on the plane.
type Status struct {
	FailureReports int64 `json:"failure_reports"`
	BrickFailures  int64 `json:"brick_failure_reports"`
	Discrepancies  int64 `json:"discrepancy_reports"`
}

// Status implements controlplane.Controller.
func (m *Manager) Status() any {
	return Status{FailureReports: m.failures, BrickFailures: m.brickFailures, Discrepancies: m.discrepancies}
}
