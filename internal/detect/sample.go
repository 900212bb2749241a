package detect

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/workload"
)

// DefaultSampleEvery is the default sampling stride: one in this many
// eligible operations is replayed against the known-good instance.
const DefaultSampleEvery = 16

// Sampler runs the Comparison detector on a deterministic 1-in-Every
// slice of live traffic, the way the paper ran its expensive second
// detector beside the cheap client-side checks. Only idempotent,
// session-free operations are eligible: the known-good instance shares
// the database but nothing else with the instance under test, so
// replaying a write (or a session-touching read) would fork the two.
//
// The sampler is safe for concurrent use (a live HTTP front end calls
// Observe from many goroutines).
type Sampler struct {
	// Comp replays against the known-good instance; required.
	Comp *Comparison
	// Every is the sampling stride (DefaultSampleEvery when zero).
	Every int64
	// OnDiscrepancy receives every mismatch — hosts publish these onto
	// the control-plane bus as discrepancy signals.
	OnDiscrepancy func(op string, v Verdict)

	seen, checked, flagged atomic.Int64
}

func (s *Sampler) stride() int64 {
	if s.Every <= 0 {
		return DefaultSampleEvery
	}
	return s.Every
}

// Observe offers one completed operation, its body or its error, to the
// sampler; every stride'th eligible one is replayed and compared, and
// only that one pays for a copy of the body. Failed operations are not
// eligible: the client-side detector already classifies and reports
// them, and replaying a transient failure (a 503 during recovery, a
// killed call) would misfile it as corruption — a discrepancy means a
// response that LOOKED fine but wasn't.
func (s *Sampler) Observe(call *core.Call, body []byte, err error) {
	if s == nil || s.Comp == nil || call == nil || err != nil {
		return
	}
	info, ok := ebid.Info(call.Op)
	if !ok || !info.Idempotent || info.NeedsSession {
		return
	}
	if s.seen.Add(1)%s.stride() != 0 {
		return
	}
	s.checked.Add(1)
	if v := s.Comp.Check(call, workload.Response{Body: string(body)}); v.Faulty {
		s.flagged.Add(1)
		if s.OnDiscrepancy != nil {
			s.OnDiscrepancy(call.Op, v)
		}
	}
}

// Stats reports eligible operations seen, replays performed, and
// discrepancies flagged.
func (s *Sampler) Stats() (seen, checked, flagged int64) {
	return s.seen.Load(), s.checked.Load(), s.flagged.Load()
}
