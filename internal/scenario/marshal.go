package scenario

import (
	"fmt"
	"strings"
	"time"
)

// Marshal renders the spec as canonical TOML: only non-default fields
// are emitted, so Parse(Marshal(Parse(f))) is structurally identical to
// Parse(f) — the golden round-trip test leans on this.
func (s *Spec) Marshal() string {
	var w writer
	w.kv("name", s.Name)
	w.kvStr("description", s.Description)
	if s.Seed != nil {
		w.kv("seed", *s.Seed)
	}
	if s.ExpectFail {
		w.kv("expect_fail", true)
	}

	c := s.Cluster
	w.section("cluster", func() {
		w.kvInt("nodes", c.Nodes)
		w.kvStr("store", c.Store)
		w.kvInt("shards", c.Shards)
		w.kvInt("replicas", c.Replicas)
		w.kvInt("write_quorum", c.WriteQuorum)
		w.kvDur("lease_ttl", c.LeaseTTL)
		w.kvInt("workers", c.Workers)
		w.kvInt("congestion_scale", c.CongestionScale)
		w.kvStr("routing", c.Routing)
		w.kvInt("shed_watermark", c.ShedWatermark)
		if c.DegradedNode >= 0 {
			w.kv("degraded_node", int64(c.DegradedNode))
			w.kvInt("degraded_workers", c.DegradedWorkers)
		}
	})

	l := s.Load
	w.section("load", func() {
		w.kvInt("clients", l.Clients)
		w.kvDur("warmup", l.Warmup)
		w.kvDur("run", l.Run)
		w.kvDur("cooldown", l.Cooldown)
		w.kvDur("stagger", l.Stagger)
		w.kvDur("think_mean", l.ThinkMean)
		if l.scaleClientsSet {
			w.kv("scale_clients", l.ScaleClients)
		}
	})

	for _, su := range s.Surges {
		w.header("[[surge]]")
		w.kvDur("at", su.At)
		w.kvInt("clients", su.Clients)
		w.kvDur("leave_at", su.LeaveAt)
	}

	p := s.Plane
	w.section("controlplane", func() {
		w.kvDur("tick", p.Tick)
		if p.Recovery {
			w.kv("recovery", true)
		}
		w.kvInt("recovery_threshold", p.RecoveryThreshold)
		w.kvDur("rejuvenate_every", p.RejuvenateEvery)
	})

	for _, f := range s.Faults {
		w.header("[[fault]]")
		w.kvDur("at", f.At)
		w.kv("kind", kindToken(f.Kind))
		w.kvStr("component", f.Component)
		w.kvStr("mode", string(f.Mode))
		w.kvStr("session", f.Session)
		w.kvStr("table", f.Table)
		if f.RowKey != 0 {
			w.kv("row", f.RowKey)
		}
		w.kvStr("column", f.Column)
		if f.LeakPerCall != 0 {
			w.kv("leak_per_call", f.LeakPerCall)
		}
		w.kvInt("node", f.Node)
	}

	a := s.Assert
	w.section("assert", func() {
		if a.LostSessions != nil {
			w.kv("lost_sessions", int64(*a.LostSessions))
		}
		if a.HumanPages != nil {
			w.kv("human_pages", int64(*a.HumanPages))
		}
		w.kvDur("max_p99", a.MaxP99)
		if a.MaxFailures != nil {
			w.kv("max_failures", *a.MaxFailures)
		}
		if a.MinGoodput != 0 {
			w.kv("min_goodput", a.MinGoodput)
		}
		if a.MinGoodOps != 0 {
			w.kv("min_good_ops", a.MinGoodOps)
		}
		w.kvInt("min_brick_restarts", a.MinBrickRestarts)
		w.kvInt("min_rejuvenations", a.MinRejuvenations)
		if a.MinShed != nil {
			w.kv("min_shed", *a.MinShed)
		}
		if a.MaxShed != nil {
			w.kv("max_shed", *a.MaxShed)
		}
		if a.MaxOver8s != nil {
			w.kv("max_over_8s", *a.MaxOver8s)
		}
		if a.FaultsCleared != nil {
			w.kv("faults_cleared", *a.FaultsCleared)
		}
	})

	return w.String()
}

// writer accumulates TOML lines; section buffers a table and drops it
// entirely when the body emitted nothing.
type writer struct {
	b       strings.Builder
	pending string // buffered header not yet known to have a body
}

func (w *writer) String() string { return w.b.String() }

func (w *writer) header(h string) {
	if w.b.Len() > 0 {
		w.b.WriteByte('\n')
	}
	w.b.WriteString(h)
	w.b.WriteByte('\n')
	w.pending = ""
}

func (w *writer) section(name string, body func()) {
	w.pending = "[" + name + "]"
	body()
	w.pending = ""
}

func (w *writer) emit(line string) {
	if w.pending != "" {
		if w.b.Len() > 0 {
			w.b.WriteByte('\n')
		}
		w.b.WriteString(w.pending)
		w.b.WriteByte('\n')
		w.pending = ""
	}
	w.b.WriteString(line)
	w.b.WriteByte('\n')
}

func (w *writer) kv(key string, v any) {
	switch x := v.(type) {
	case string:
		w.emit(key + " = " + quote(x))
	case bool:
		w.emit(fmt.Sprintf("%s = %t", key, x))
	case int64:
		w.emit(fmt.Sprintf("%s = %d", key, x))
	case float64:
		s := fmt.Sprintf("%g", x)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		w.emit(key + " = " + s)
	default:
		panic(fmt.Sprintf("scenario: marshal: unsupported %T", v))
	}
}

// kvStr/kvInt/kvDur emit only non-zero values.
func (w *writer) kvStr(key, v string) {
	if v != "" {
		w.kv(key, v)
	}
}

func (w *writer) kvInt(key string, v int) {
	if v != 0 {
		w.kv(key, int64(v))
	}
}

func (w *writer) kvDur(key string, v time.Duration) {
	if v != 0 {
		w.kv(key, v.String())
	}
}
