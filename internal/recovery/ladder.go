package recovery

import (
	"repro/internal/core"
	"repro/internal/ebid"
)

// ladder is the paper's recursive recovery policy, cheapest rung first:
// EJB µRB → WAR → application → JVM/JBoss process → operating system.
var ladder = [...]core.Scope{core.ScopeComponent, core.ScopeWAR, core.ScopeApp, core.ScopeProcess, core.ScopeNode}

// Ladder returns the reboot scope for a diagnosed target at an escalation
// level (0 on a fresh diagnosis, +1 each time the same target recurs
// within the escalation window). ScopeComponent means "microreboot the
// target's recovery group". The WAR is its own scope, so a WAR target
// starts on the WAR rung. false means the ladder is exhausted: only a
// human is left.
func Ladder(target string, level int) (core.Scope, bool) {
	if level < 0 {
		return 0, false
	}
	if target == ebid.WAR {
		level++
	}
	if level >= len(ladder) {
		return 0, false
	}
	return ladder[level], true
}

// RebootRung performs the reboot a rung names for target: a µRB of the
// target's recovery group for ScopeComponent, the whole scope otherwise.
func RebootRung(r Rebooter, target string, scope core.Scope) (*core.Reboot, error) {
	if scope == core.ScopeComponent {
		return r.Microreboot(target)
	}
	return r.RebootScope(scope)
}
