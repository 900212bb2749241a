package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/ebid"
)

// AblationDelayRow is one point of the sentinel-delay sweep.
type AblationDelayRow struct {
	Delay       time.Duration
	FailedPerRB float64
	// EffectiveRecovery is the client-visible recovery window (delay +
	// µRB duration).
	EffectiveRecovery time.Duration
}

// AblationDelayResult analyzes the tradeoff the paper measured at a
// single point (200 ms) but explicitly left unanalyzed: how long to wait
// between binding the recovery sentinel and crashing the component. A
// longer grace delay lets more in-flight requests drain (fewer failures)
// but extends the recovery window. This is an extension beyond the
// paper's evaluation.
type AblationDelayResult struct {
	Component string
	Rows      []AblationDelayRow
	// BestDelay is the smallest delay achieving within 10% of the
	// minimum failure count.
	BestDelay time.Duration
}

// AblationDelay sweeps the sentinel-to-crash delay for µRBs of the given
// component under load, with transparent retries enabled (the Table 6
// configuration).
func AblationDelay(o Options, component string) *AblationDelayResult {
	if component == "" {
		component = ebid.ViewItem
	}
	delays := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 500 * time.Millisecond, time.Second}
	if o.Quick {
		delays = []time.Duration{0, 200 * time.Millisecond, time.Second}
	}
	trials := 10
	if o.Quick {
		trials = 4
	}
	res := &AblationDelayResult{Component: component}
	for _, delay := range delays {
		e := newEnv(o, o.clients(500), useFastS, cluster.NodeConfig{Retry503: true})
		e.emulator.Start()
		e.kernel.RunFor(o.scale(2 * time.Minute))
		before := e.recorder.BadOps()
		var rbDur time.Duration
		for i := 0; i < trials; i++ {
			if delay > 0 {
				if err := e.node.MicrorebootWithDelay(delay, component); err != nil {
					panic(err)
				}
			} else {
				if _, err := e.node.Microreboot(component); err != nil {
					panic(err)
				}
			}
			e.kernel.RunFor(20 * time.Second)
		}
		rbDur = ebid.CostModel{}.CrashTime(component) + ebid.CostModel{}.ReinitTime(component)
		e.emulator.Stop()
		e.emulator.FlushActions()
		e.kernel.RunFor(30 * time.Second)
		res.Rows = append(res.Rows, AblationDelayRow{
			Delay:             delay,
			FailedPerRB:       float64(e.recorder.BadOps()-before) / float64(trials),
			EffectiveRecovery: delay + rbDur,
		})
	}
	min := res.Rows[0].FailedPerRB
	for _, r := range res.Rows {
		if r.FailedPerRB < min {
			min = r.FailedPerRB
		}
	}
	for _, r := range res.Rows {
		if r.FailedPerRB <= min*1.1+0.5 {
			res.BestDelay = r.Delay
			break
		}
	}
	return res
}

// String renders the ablation table.
func (r *AblationDelayResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation (extension): sentinel-to-crash delay tradeoff for %s µRBs\n", r.Component)
	fmt.Fprintf(&b, "%10s %16s %20s\n", "delay", "failed per µRB", "effective recovery")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10s %16.1f %20s\n", row.Delay, row.FailedPerRB, row.EffectiveRecovery)
	}
	fmt.Fprintf(&b, "smallest delay within 10%% of minimum failures: %s (paper used 200 ms untuned)\n", r.BestDelay)
	return b.String()
}
