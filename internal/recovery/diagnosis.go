package recovery

import "repro/internal/ebid"

// Diagnosis is the score-based diagnosis half of the recovery manager:
// it accumulates suspicion over components (and session-state bricks) as
// failure reports arrive, using the static URL→component-path mapping,
// and decides when the evidence crosses the action threshold. It is
// deliberately simplistic and yields false positives; part of the paper's
// point is that cheap recovery makes sloppy diagnosis tolerable (§6.3).
//
// Diagnosis holds no policy: what to do about a diagnosed target is the
// Ladder's job.
type Diagnosis struct {
	threshold float64

	scores map[string]float64
}

// Weights for path scoring. The WAR sits on every path, so it gets a
// low weight; the operation's own session component is the most
// suspicious; entities are shared across operations and accumulate
// across distinct failing URLs.
const (
	warWeight     = 0.25
	sessionWeight = 1.0
	entityWeight  = 0.6
)

// NewDiagnosis builds a diagnosis engine from a (filled) manager config.
func NewDiagnosis(cfg Config) *Diagnosis {
	cfg.fill()
	return &Diagnosis{
		threshold: cfg.Threshold,
		scores:    map[string]float64{},
	}
}

// ObserveFailure scores one failure observation and reports whether the
// top suspect crossed the threshold (target is only meaningful when
// triggered is true).
func (d *Diagnosis) ObserveFailure(r Report) (target string, triggered bool) {
	path := ebid.PathFor(r.Op)
	if len(path) == 0 {
		// Unknown URL: all we can blame is the web tier, at full weight.
		d.scores[ebid.WAR] += sessionWeight
	}
	for _, comp := range path {
		d.scores[comp] += weightOf(comp, r.Op)
	}
	return d.check()
}

// ObserveBrick scores one brick heartbeat-loss observation. Brick names
// score like components: crossing the threshold triggers recovery.
func (d *Diagnosis) ObserveBrick(brick string) (target string, triggered bool) {
	d.scores[brick] += sessionWeight
	return d.check()
}

func (d *Diagnosis) check() (string, bool) {
	if name, score := d.Top(); score >= d.threshold {
		return name, true
	}
	return "", false
}

func weightOf(comp, op string) float64 {
	if comp == ebid.WAR {
		return warWeight
	}
	if comp == op {
		return sessionWeight
	}
	return entityWeight
}

// Top returns the highest-scoring suspect in a single pass over the score
// map, breaking ties toward the alphabetically-first name so the result
// is deterministic regardless of map iteration order. (An earlier
// implementation rebuilt and sorted the full name slice on every report —
// O(n log n) per observation for the same answer.)
func (d *Diagnosis) Top() (string, float64) {
	best, bestScore := "", -1.0
	for n, s := range d.scores {
		if s > bestScore || (s == bestScore && (best == "" || n < best)) {
			best, bestScore = n, s
		}
	}
	return best, bestScore
}

// Reset clears accumulated suspicion (called when a recovery triggers:
// the evidence has been acted on).
func (d *Diagnosis) Reset() {
	d.scores = map[string]float64{}
}

// Scores returns a copy of the current suspicion table (for operator
// status surfaces).
func (d *Diagnosis) Scores() map[string]float64 {
	out := make(map[string]float64, len(d.scores))
	for n, s := range d.scores {
		out[n] = s
	}
	return out
}
