package main

import (
	"fmt"
	"time"
)

// recoveryLog is what the recovery controller observed: when each phase
// ran (as offsets into the open loop, to attribute ops by their intended
// time) and how long each recovery took.
type recoveryLog struct {
	aStart, aEnd time.Duration // microreboot phase
	bStart       time.Duration // restart phase; it runs to the end of the loop

	urbMS       []float64 // POST sent → every rebooted member running again
	urbModelMS  []float64 // the duration the server said it would take
	restartMS   []float64 // POST sent → first 200 for Home through the proxy
	downtimeMS  []float64 // the supervisor's own downtime figure
	healthLagMS []float64 // supervisor ready → router has the backend healthy
	killedCalls int
	abortedTxs  int

	violations []string
}

type urbReply struct {
	Members     []string `json:"members"`
	DurationMS  float64  `json:"duration_ms"`
	AbortedTxs  int      `json:"aborted_txs"`
	KilledCalls int      `json:"killed_calls"`
}

// runRecovery injects the recoveries while lr's open loop runs, and ends
// the loop when it is done. Phase A microreboots components inside the
// backend; phase B has the proxy SIGKILL and re-exec the whole backend.
func runRecovery(fx *fixture, lr *loadRun, ledger *bidLedger, urbs, restarts int) (*recoveryLog, error) {
	lg := &recoveryLog{}
	defer lr.stopAfter()
	since := func() time.Duration { return time.Since(lr.start) }

	time.Sleep(quietLead)
	lg.aStart = since()
	for i := 0; i < urbs; i++ {
		comp := urbCycle[i%len(urbCycle)]
		t0 := time.Now()
		var reply urbReply
		if err := postJSON("http://"+fx.backends[0]+"/admin/microreboot?component="+comp, &reply); err != nil {
			return lg, fmt.Errorf("microreboot %s: %w", comp, err)
		}
		if err := waitRunning(fx.backends[0], reply.Members, 10*time.Second); err != nil {
			return lg, fmt.Errorf("microreboot %s: %w", comp, err)
		}
		lg.urbMS = append(lg.urbMS, float64(time.Since(t0))/1e6)
		lg.urbModelMS = append(lg.urbModelMS, reply.DurationMS)
		lg.killedCalls += reply.KilledCalls
		lg.abortedTxs += reply.AbortedTxs
		time.Sleep(urbGap)
	}
	lg.aEnd = since()
	lg.bStart = lg.aEnd

	probe := newConn(fx.target)
	defer probe.close()
	for i := 0; i < restarts; i++ {
		if err := fx.sample(); err != nil { // last look at the incarnation about to die
			return lg, err
		}
		before, err := fx.proxyStatus()
		if err != nil {
			return lg, err
		}
		oldGen := before.Supervisor[0].Gen
		t0 := time.Now()
		posted := make(chan error, 1)
		var reply struct {
			DowntimeMS float64 `json:"downtime_ms"`
		}
		go func() {
			posted <- postJSON("http://"+fx.target+"/admin/proxy/reboot?backend=node0&hard=1", &reply)
		}()
		var ready, healthy, serving time.Duration
		for serving == 0 || healthy == 0 {
			if time.Since(t0) > 15*time.Second {
				return lg, fmt.Errorf("restart %d: backend not serving again after 15 s", i)
			}
			time.Sleep(probeEvery)
			st, err := fx.proxyStatus()
			if err != nil || st.Supervisor[0].Gen == oldGen {
				continue // the old incarnation may still answer; only the next one counts
			}
			if ready == 0 && st.Supervisor[0].Ready {
				ready = time.Since(t0)
			}
			if ready != 0 && healthy == 0 && st.Router.Backends[0].Healthy {
				healthy = time.Since(t0)
			}
			if serving == 0 {
				if resp, err := probe.get("/ebid/Home", "", -1); err == nil && resp.status == 200 {
					serving = time.Since(t0)
				}
			}
		}
		if err := <-posted; err != nil {
			return lg, fmt.Errorf("restart %d: %w", i, err)
		}
		lg.restartMS = append(lg.restartMS, float64(serving)/1e6)
		lg.downtimeMS = append(lg.downtimeMS, reply.DowntimeMS)
		lg.healthLagMS = append(lg.healthLagMS, float64(healthy-ready)/1e6)
		// The process was SIGKILLed; everything it acknowledged must be
		// back from the WAL.
		for _, v := range ledger.verify(fx.history, 48, false) {
			lg.violations = append(lg.violations, fmt.Sprintf("after restart %d: %s", i+1, v))
		}
		if err := fx.sample(); err != nil { // first look at the new incarnation
			return lg, err
		}
		time.Sleep(restartGap)
	}
	time.Sleep(quietLead)
	return lg, nil
}

// waitRunning polls /admin/components until every named member is back
// in its serving state.
func waitRunning(backend string, members []string, patience time.Duration) error {
	want := map[string]bool{}
	for _, m := range members {
		want[m] = true
	}
	deadline := time.Now().Add(patience)
	for {
		var comps []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		}
		if err := getJSON("http://"+backend+"/admin/components", &comps); err != nil {
			return err
		}
		down := 0
		for _, c := range comps {
			if want[c.Name] && c.State != "running" {
				down++
			}
		}
		if down == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %v still not running after %v", down, members, patience)
		}
		time.Sleep(probeEvery)
	}
}
