package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/faults"
)

// Spec is one parsed scenario. Fields mirror the TOML schema raw —
// defaults are applied by the engine at run time, not at parse time, so
// Marshal/Parse round-trips are exact.
type Spec struct {
	// Name uniquely identifies the scenario within a campaign (required).
	Name        string
	Description string
	// Seed pins the simulation seed; nil means the harness default (42).
	// Zero is a valid explicit seed.
	Seed *int64
	// ExpectFail marks a negative control: the campaign passes this
	// scenario only if its invariants FAIL (proving assertions fire).
	ExpectFail bool

	Cluster ClusterSpec
	Load    LoadSpec
	Surges  []SurgeSpec
	Plane   PlaneSpec
	Faults  []FaultSpec
	Assert  AssertSpec
}

// ClusterSpec is the [cluster] table.
type ClusterSpec struct {
	Nodes int    // app-server fleet size (default 1)
	Store string // fasts | ssm-cluster (default fasts)
	// Brick-ring geometry (ssm-cluster only; zero = 4×3 W=2, 1h lease).
	Shards, Replicas, WriteQuorum int
	LeaseTTL                      time.Duration
	// Node shape.
	Workers         int
	CongestionScale int
	// Routing selects the balancer policy: round-robin (default),
	// least-loaded, shed+least-loaded or shed+round-robin.
	Routing       string
	ShedWatermark int
	// DegradedNode/DegradedWorkers shrink one node's worker pool
	// (heterogeneous fleets, as in the fleet figure). -1 = none.
	DegradedNode    int
	DegradedWorkers int
}

// LoadSpec is the [load] table.
type LoadSpec struct {
	Clients   int           // base population (required)
	Warmup    time.Duration // settle time before the measured window
	Run       time.Duration // measured window (required)
	Cooldown  time.Duration // post-Stop drain (default 30s)
	Stagger   time.Duration // client start stagger (default: think mean)
	ThinkMean time.Duration
	// ScaleClients applies quick-mode population scaling (default true);
	// overload scenarios that need the full population turn it off.
	ScaleClients    bool
	scaleClientsSet bool // whether the key appeared (for Marshal)
}

// SurgeSpec is one [[surge]]: an extra population joining at At and
// (when LeaveAt > 0) draining away at LeaveAt.
type SurgeSpec struct {
	At      time.Duration
	Clients int
	LeaveAt time.Duration
}

// PlaneSpec is the [controlplane] table.
type PlaneSpec struct {
	Tick time.Duration // observe–decide–act period (default 1s)

	Recovery          bool // recovery manager + controller on node 0
	RecoveryThreshold int

	RejuvenateEvery time.Duration // fleet rolling rejuvenation period
	DrainTimeout    time.Duration
}

// FaultSpec is one [[fault]] schedule entry.
type FaultSpec struct {
	At   time.Duration
	Kind faults.Kind
	// Component targets hook-based faults, or names the victim brick for
	// brick-crash/brick-slow ("" = injector default).
	Component string
	Mode      faults.Mode
	// Session targets session-store corruption; the sentinel "@live"
	// resolves to a live brick-cluster session at injection time.
	Session     string
	Table       string
	RowKey      int64
	Column      string
	LeakPerCall int64
	// Node selects which node's injector fires (default 0).
	Node int
}

// AssertSpec is the [assert] table: the invariant vocabulary. Pointer
// fields distinguish "not asserted" from "asserted zero".
type AssertSpec struct {
	LostSessions     *int          // exact lost-session count (usually 0)
	HumanPages       *int          // exact human-notification count (usually 0)
	MaxP99           time.Duration // cumulative p99 bound
	MaxFailures      *int64        // bound on BadOps growth after warmup
	MinGoodput       float64       // Taw floor over the last quarter of the run
	MinGoodOps       int64         // absolute completed-ops floor
	MinBrickRestarts int
	MinRejuvenations int
	MinShed          *int64
	MaxShed          *int64
	MaxOver8s        *int64 // ops slower than the 8s failure-equivalent cutoff
	FaultsCleared    *bool  // no injected fault still active at scenario end
}

// kindNames maps spec kind tokens onto injector kinds (kebab-case,
// mirroring Table 2's rows plus the brick extensions).
var kindNames = map[string]faults.Kind{
	"deadlock":              faults.Deadlock,
	"infinite-loop":         faults.InfiniteLoop,
	"app-memory-leak":       faults.AppMemoryLeak,
	"transient-exception":   faults.TransientException,
	"corrupt-primary-keys":  faults.CorruptPrimaryKeys,
	"corrupt-naming":        faults.CorruptNaming,
	"corrupt-tx-method-map": faults.CorruptTxMethodMap,
	"corrupt-session-attrs": faults.CorruptSessionAttrs,
	"corrupt-fasts":         faults.CorruptFastS,
	"corrupt-ssm":           faults.CorruptSSM,
	"corrupt-db":            faults.CorruptDB,
	"memleak-intra-jvm":     faults.MemLeakIntraJVM,
	"memleak-extra-jvm":     faults.MemLeakExtraJVM,
	"bitflip-memory":        faults.BitFlipMemory,
	"bitflip-registers":     faults.BitFlipRegisters,
	"bad-syscall":           faults.BadSyscall,
	"brick-crash":           faults.BrickCrash,
	"brick-slow":            faults.BrickSlow,
}

// kindToken inverts kindNames for Marshal.
func kindToken(k faults.Kind) string {
	for tok, kk := range kindNames {
		if kk == k {
			return tok
		}
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// KindTokens lists the accepted [[fault]] kind names, sorted.
func KindTokens() []string {
	out := make([]string, 0, len(kindNames))
	for tok := range kindNames {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// Routing policy tokens.
const (
	RoutingRoundRobin     = "round-robin"
	RoutingLeastLoaded    = "least-loaded"
	RoutingShedLeast      = "shed+least-loaded"
	RoutingShedRoundRobin = "shed+round-robin"
)

var routingTokens = map[string]bool{
	RoutingRoundRobin: true, RoutingLeastLoaded: true,
	RoutingShedLeast: true, RoutingShedRoundRobin: true,
}

// Parse parses and validates one scenario spec. file is used in error
// messages only.
func Parse(file, src string) (*Spec, error) {
	d, err := parseTOML(file, src)
	if err != nil {
		return nil, err
	}
	s := &Spec{}
	b := &binder{doc: d}

	// Top level.
	top := d.top
	s.Name = b.str(top, "name", "")
	s.Description = b.str(top, "description", "")
	if v, line, ok := b.take(top, "seed"); ok {
		n, err := asInt(v)
		if err != nil {
			b.fail(line, "seed: %v", err)
		}
		s.Seed = &n
	}
	s.ExpectFail = b.boolean(top, "expect_fail", false)

	// [cluster]
	if t := b.table("cluster"); t != nil {
		c := &s.Cluster
		c.Nodes = b.i(t, "nodes", 0)
		c.Store = b.str(t, "store", "")
		c.Shards = b.i(t, "shards", 0)
		c.Replicas = b.i(t, "replicas", 0)
		c.WriteQuorum = b.i(t, "write_quorum", 0)
		c.LeaseTTL = b.dur(t, "lease_ttl", 0)
		c.Workers = b.i(t, "workers", 0)
		c.CongestionScale = b.i(t, "congestion_scale", 0)
		c.Routing = b.str(t, "routing", "")
		c.ShedWatermark = b.i(t, "shed_watermark", 0)
		c.DegradedNode = b.i(t, "degraded_node", -1)
		c.DegradedWorkers = b.i(t, "degraded_workers", 0)
		if c.Routing != "" && !routingTokens[c.Routing] {
			b.fail(t.line, "cluster: unknown routing %q (want %s)", c.Routing, strings.Join(routingTokenList(), ", "))
		}
		switch c.Store {
		case "", "fasts", "ssm-cluster":
		default:
			b.fail(t.line, "cluster: unknown store %q (want fasts or ssm-cluster)", c.Store)
		}
	} else {
		s.Cluster.DegradedNode = -1
	}

	// [load]
	s.Load.ScaleClients = true
	if t := b.table("load"); t != nil {
		l := &s.Load
		l.Clients = b.i(t, "clients", 0)
		l.Warmup = b.dur(t, "warmup", 0)
		l.Run = b.dur(t, "run", 0)
		l.Cooldown = b.dur(t, "cooldown", 0)
		l.Stagger = b.dur(t, "stagger", 0)
		l.ThinkMean = b.dur(t, "think_mean", 0)
		if v, line, ok := b.take(t, "scale_clients"); ok {
			bv, ok := v.(bool)
			if !ok {
				b.fail(line, "scale_clients: want true or false")
			}
			l.ScaleClients = bv
			l.scaleClientsSet = true
		}
		if l.Clients <= 0 {
			b.fail(t.line, "load: clients must be a positive integer")
		}
		if l.Run <= 0 {
			b.fail(t.line, "load: run must be a positive duration")
		}
	} else {
		b.fail(1, "missing required [load] table")
	}

	// [[surge]]
	for _, t := range b.array("surge") {
		su := SurgeSpec{
			At:      b.dur(t, "at", 0),
			Clients: b.i(t, "clients", 0),
			LeaveAt: b.dur(t, "leave_at", 0),
		}
		if su.Clients <= 0 {
			b.fail(t.line, "surge: clients must be a positive integer")
		}
		if su.LeaveAt != 0 && su.LeaveAt <= su.At {
			b.fail(t.line, "surge: leave_at must be after at")
		}
		s.Surges = append(s.Surges, su)
	}

	// [controlplane]
	if t := b.table("controlplane"); t != nil {
		p := &s.Plane
		p.Tick = b.dur(t, "tick", 0)
		p.Recovery = b.boolean(t, "recovery", false)
		p.RecoveryThreshold = b.i(t, "recovery_threshold", 0)
		p.RejuvenateEvery = b.dur(t, "rejuvenate_every", 0)
		p.DrainTimeout = b.dur(t, "drain_timeout", 0)
	}

	// [[fault]]
	for _, t := range b.array("fault") {
		f := FaultSpec{At: b.dur(t, "at", 0)}
		kindTok := b.str(t, "kind", "")
		kind, ok := kindNames[kindTok]
		if !ok {
			b.fail(t.line, "fault: unknown kind %q (want one of %s)", kindTok, strings.Join(KindTokens(), ", "))
		}
		f.Kind = kind
		f.Component = b.str(t, "component", "")
		mode := b.str(t, "mode", "")
		switch faults.Mode(mode) {
		case faults.ModeNone, faults.ModeNull, faults.ModeInvalid, faults.ModeWrong:
			f.Mode = faults.Mode(mode)
		default:
			b.fail(t.line, "fault: unknown mode %q (want null, invalid or wrong)", mode)
		}
		f.Session = b.str(t, "session", "")
		f.Table = b.str(t, "table", "")
		f.RowKey = b.i64(t, "row", 0)
		f.Column = b.str(t, "column", "")
		f.LeakPerCall = b.i64(t, "leak_per_call", 0)
		f.Node = b.i(t, "node", 0)
		s.Faults = append(s.Faults, f)
	}

	// [assert]
	if t := b.table("assert"); t != nil {
		a := &s.Assert
		a.LostSessions = b.intPtr(t, "lost_sessions")
		a.HumanPages = b.intPtr(t, "human_pages")
		a.MaxP99 = b.dur(t, "max_p99", 0)
		a.MaxFailures = b.i64Ptr(t, "max_failures")
		a.MinGoodput = b.f64(t, "min_goodput", 0)
		a.MinGoodOps = b.i64(t, "min_good_ops", 0)
		a.MinBrickRestarts = b.i(t, "min_brick_restarts", 0)
		a.MinRejuvenations = b.i(t, "min_rejuvenations", 0)
		a.MinShed = b.i64Ptr(t, "min_shed")
		a.MaxShed = b.i64Ptr(t, "max_shed")
		a.MaxOver8s = b.i64Ptr(t, "max_over_8s")
		a.FaultsCleared = b.boolPtr(t, "faults_cleared")
	}

	if b.err != nil {
		return nil, b.err
	}
	// Leftover keys and tables are unknown: hard errors.
	if err := b.unknown(); err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, d.errf(1, "missing required top-level key \"name\"")
	}
	if err := s.validate(file); err != nil {
		return nil, err
	}
	return s, nil
}

// validate enforces cross-field consistency a single binder call can't
// see (brick-dependent faults and assertions need the shared
// brick-cluster store, and so on).
func (s *Spec) validate(file string) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s: scenario %q: %s", file, s.Name, fmt.Sprintf(format, args...))
	}
	onBricks := s.Cluster.Store == "ssm-cluster"
	for _, f := range s.Faults {
		switch f.Kind {
		case faults.BrickCrash, faults.BrickSlow, faults.CorruptSSM:
			if !onBricks {
				return bad("fault %s requires cluster store ssm-cluster", kindToken(f.Kind))
			}
		case faults.CorruptFastS:
			if s.Cluster.Store != "" && s.Cluster.Store != "fasts" {
				return bad("fault corrupt-fasts requires the fasts store")
			}
		}
		if f.Node < 0 || (s.Cluster.Nodes > 0 && f.Node >= s.Cluster.Nodes) || (s.Cluster.Nodes == 0 && f.Node > 0) {
			return bad("fault node %d out of range", f.Node)
		}
	}
	a := s.Assert
	if (a.LostSessions != nil || a.MinBrickRestarts > 0) && !onBricks {
		return bad("brick-level assertions (lost_sessions, min_brick_restarts) require cluster store ssm-cluster")
	}
	if a.MinShed != nil && !strings.HasPrefix(s.Cluster.Routing, "shed") {
		return bad("min_shed requires a shedding routing policy")
	}
	if s.Cluster.Routing != "" && strings.HasPrefix(s.Cluster.Routing, "shed") && s.Cluster.ShedWatermark <= 0 {
		return bad("shedding routing requires a positive shed_watermark")
	}
	if s.Plane.RejuvenateEvery > 0 && s.Cluster.Nodes < 2 {
		return bad("rolling rejuvenation needs at least 2 nodes (one must hold the fort)")
	}
	return nil
}

func routingTokenList() []string {
	return []string{RoutingRoundRobin, RoutingLeastLoaded, RoutingShedLeast, RoutingShedRoundRobin}
}

// binder consumes keys from parsed tables with type checking, recording
// the first error.
type binder struct {
	doc *doc
	err error
	// bound remembers consumed tables: their leftover keys are unknown
	// too, and the sweep must still see them.
	bound []*table
}

func (b *binder) fail(line int, format string, args ...any) {
	if b.err == nil {
		b.err = b.doc.errf(line, format, args...)
	}
}

func (b *binder) table(name string) *table {
	t := b.doc.tables[name]
	if t != nil {
		delete(b.doc.tables, name)
		b.bound = append(b.bound, t)
	}
	return t
}

func (b *binder) array(name string) []*table {
	a := b.doc.arrays[name]
	delete(b.doc.arrays, name)
	b.bound = append(b.bound, a...)
	return a
}

func (b *binder) take(t *table, key string) (any, int, bool) {
	v, ok := t.keys[key]
	if !ok {
		return nil, 0, false
	}
	delete(t.keys, key)
	return v.v, v.line, true
}

func (b *binder) str(t *table, key, def string) string {
	v, line, ok := b.take(t, key)
	if !ok {
		return def
	}
	s, ok := v.(string)
	if !ok {
		b.fail(line, "%s: want a quoted string", key)
		return def
	}
	return s
}

func (b *binder) boolean(t *table, key string, def bool) bool {
	v, line, ok := b.take(t, key)
	if !ok {
		return def
	}
	bv, ok := v.(bool)
	if !ok {
		b.fail(line, "%s: want true or false", key)
		return def
	}
	return bv
}

func asInt(v any) (int64, error) {
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("want an integer")
	}
	return n, nil
}

func (b *binder) i64(t *table, key string, def int64) int64 {
	v, line, ok := b.take(t, key)
	if !ok {
		return def
	}
	n, err := asInt(v)
	if err != nil {
		b.fail(line, "%s: %v", key, err)
		return def
	}
	return n
}

func (b *binder) i(t *table, key string, def int) int {
	v, line, ok := b.take(t, key)
	if !ok {
		return def
	}
	n, err := asInt(v)
	if err != nil {
		b.fail(line, "%s: %v", key, err)
		return def
	}
	return int(n)
}

func (b *binder) f64(t *table, key string, def float64) float64 {
	v, line, ok := b.take(t, key)
	if !ok {
		return def
	}
	switch n := v.(type) {
	case float64:
		return n
	case int64:
		return float64(n)
	}
	b.fail(line, "%s: want a number", key)
	return def
}

func (b *binder) dur(t *table, key string, def time.Duration) time.Duration {
	v, line, ok := b.take(t, key)
	if !ok {
		return def
	}
	s, ok := v.(string)
	if !ok {
		b.fail(line, "%s: want a duration string like \"90s\"", key)
		return def
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		b.fail(line, "%s: %v", key, err)
		return def
	}
	return d
}

func (b *binder) intPtr(t *table, key string) *int {
	v, line, ok := b.take(t, key)
	if !ok {
		return nil
	}
	n, err := asInt(v)
	if err != nil {
		b.fail(line, "%s: %v", key, err)
		return nil
	}
	i := int(n)
	return &i
}

func (b *binder) i64Ptr(t *table, key string) *int64 {
	v, line, ok := b.take(t, key)
	if !ok {
		return nil
	}
	n, err := asInt(v)
	if err != nil {
		b.fail(line, "%s: %v", key, err)
		return nil
	}
	return &n
}

func (b *binder) boolPtr(t *table, key string) *bool {
	v, line, ok := b.take(t, key)
	if !ok {
		return nil
	}
	bv, ok := v.(bool)
	if !ok {
		b.fail(line, "%s: want true or false", key)
		return nil
	}
	return &bv
}

// unknown reports the first leftover (unconsumed) key or table.
func (b *binder) unknown() error {
	var errs []string
	collect := func(t *table) {
		prefix := ""
		if t.name != "" {
			prefix = "[" + t.name + "] "
		}
		keys := make([]string, 0, len(t.keys))
		for k := range t.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			errs = append(errs, fmt.Sprintf("%s:%d: unknown key %s%q", b.doc.file, t.keys[k].line, prefix, k))
		}
	}
	collect(b.doc.top)
	for _, t := range b.bound {
		collect(t)
	}
	names := make([]string, 0, len(b.doc.tables))
	for n := range b.doc.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := b.doc.tables[n]
		errs = append(errs, fmt.Sprintf("%s:%d: unknown table [%s]", b.doc.file, t.line, n))
	}
	names = names[:0]
	for n := range b.doc.arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := b.doc.arrays[n][0]
		errs = append(errs, fmt.Sprintf("%s:%d: unknown table [[%s]]", b.doc.file, t.line, n))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(errs, "\n"))
}
