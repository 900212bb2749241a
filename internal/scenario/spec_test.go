package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// minimalSpec is the smallest valid scenario.
const minimalSpec = `name = "t"
[load]
clients = 10
run = "1m"
`

func TestParseMinimal(t *testing.T) {
	s, err := Parse("min.toml", minimalSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" || s.Load.Clients != 10 || s.Load.Run.Minutes() != 1 {
		t.Fatalf("spec = %+v", s)
	}
	if !s.Load.ScaleClients {
		t.Fatal("scale_clients must default to true")
	}
	if s.Cluster.DegradedNode != -1 {
		t.Fatalf("degraded_node default = %d, want -1", s.Cluster.DegradedNode)
	}
}

// bricksSpec is minimalSpec on the SSM brick cluster.
const bricksSpec = minimalSpec + `[cluster]
store = "ssm-cluster"
`

// wantParseErr asserts the parse fails and the error names the file and
// every fragment — with the line number when lineHint > 0.
func wantParseErr(t *testing.T, src string, lineHint int, fragments ...string) {
	t.Helper()
	_, err := Parse("test.toml", src)
	if err == nil {
		t.Fatalf("parse accepted bad spec:\n%s", src)
	}
	msg := err.Error()
	if !strings.Contains(msg, "test.toml") {
		t.Fatalf("error does not name the file: %v", err)
	}
	if lineHint > 0 && !strings.Contains(msg, fmt.Sprintf("test.toml:%d", lineHint)) {
		t.Fatalf("error does not carry line %d: %v", lineHint, err)
	}
	for _, f := range fragments {
		if !strings.Contains(msg, f) {
			t.Fatalf("error %q missing fragment %q", msg, f)
		}
	}
}

func TestParseUnknownKeysAreHardErrors(t *testing.T) {
	// Top-level typo, with exact line.
	wantParseErr(t, `name = "t"
typo_key = 1
[load]
clients = 10
run = "1m"
`, 2, `unknown key "typo_key"`)

	// Table-scoped typo names its table.
	wantParseErr(t, `name = "t"
[load]
clients = 10
run = "1m"
bogus = true
`, 5, `unknown key [load] "bogus"`)

	// Unknown table.
	wantParseErr(t, minimalSpec+`[gremlins]
x = 1
`, 0, "unknown table [gremlins]")

	// Unknown array-of-tables.
	wantParseErr(t, minimalSpec+`[[chaos]]
at = "1m"
`, 0, "unknown table [[chaos]]")
}

func TestParseUnknownEnumsAreHardErrors(t *testing.T) {
	wantParseErr(t, minimalSpec+`[[fault]]
at = "30s"
kind = "gremlins"
`, 0, `unknown kind "gremlins"`, "deadlock", "brick-crash")

	wantParseErr(t, minimalSpec+`[[fault]]
at = "30s"
kind = "deadlock"
mode = "sideways"
`, 0, `unknown mode "sideways"`)

	wantParseErr(t, `name = "t"
[cluster]
routing = "random"
[load]
clients = 10
run = "1m"
`, 0, `unknown routing "random"`, RoutingShedLeast)

	wantParseErr(t, `name = "t"
[cluster]
store = "redis"
[load]
clients = 10
run = "1m"
`, 0, `unknown store "redis"`)

	// The single-node SSM is ssm-cluster at 1 shard × 1 replica, W = 1.
	wantParseErr(t, `name = "t"
[cluster]
store = "ssm"
[load]
clients = 10
run = "1m"
`, 0, `unknown store "ssm"`, "fasts", "ssm-cluster")
}

func TestParseDuplicateKeysRejected(t *testing.T) {
	wantParseErr(t, `name = "t"
[load]
clients = 10
clients = 20
run = "1m"
`, 4, "duplicate key")
	wantParseErr(t, minimalSpec+`[cluster]
nodes = 1
[cluster]
nodes = 2
`, 0, "duplicate table")
}

func TestParseRequiredFields(t *testing.T) {
	wantParseErr(t, `[load]
clients = 10
run = "1m"
`, 0, `missing required top-level key "name"`)
	wantParseErr(t, `name = "t"
`, 0, "missing required [load] table")
	wantParseErr(t, `name = "t"
[load]
run = "1m"
`, 0, "clients must be a positive integer")
	wantParseErr(t, `name = "t"
[load]
clients = 10
`, 0, "run must be a positive duration")
}

func TestParseTypeMismatches(t *testing.T) {
	wantParseErr(t, `name = 7
[load]
clients = 10
run = "1m"
`, 1, "want a quoted string")
	wantParseErr(t, `name = "t"
[load]
clients = "lots"
run = "1m"
`, 3, "want an integer")
	wantParseErr(t, `name = "t"
[load]
clients = 10
run = "banana"
`, 4, "run")
}

func TestValidateCrossFieldRules(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"brick fault without bricks", minimalSpec + "[[fault]]\nat = \"1s\"\nkind = \"brick-crash\"\n",
			"requires cluster store ssm-cluster"},
		// The brick ring is fixed: its resize vocabulary is unknown on
		// every store.
		{"ring without bricks", minimalSpec + "[[ring]]\nat = \"1s\"\naction = \"add\"\n",
			"unknown table [[ring]]"},
		{"autoscale without bricks", minimalSpec + "[controlplane]\nautoscale = true\n",
			`unknown key [controlplane] "autoscale"`},
		{"ring on bricks", bricksSpec + "[[ring]]\nat = \"1s\"\naction = \"add\"\n",
			"unknown table [[ring]]"},
		{"autoscale on bricks", bricksSpec + "[controlplane]\nautoscale = true\n",
			`unknown key [controlplane] "autoscale"`},
		{"pacer on bricks", bricksSpec + "[controlplane]\npacer = true\n",
			`unknown key [controlplane] "pacer"`},
		{"migrate_every on bricks", bricksSpec + "[controlplane]\nmigrate_every = \"50ms\"\n",
			`unknown key [controlplane] "migrate_every"`},
		{"min_shed without shed routing", minimalSpec + "[assert]\nmin_shed = 1\n",
			"min_shed requires a shedding routing policy"},
		{"shed routing without watermark",
			"name = \"t\"\n[cluster]\nrouting = \"shed+least-loaded\"\n[load]\nclients = 10\nrun = \"1m\"\n",
			"positive shed_watermark"},
		{"rejuvenation on lone node", minimalSpec + "[controlplane]\nrejuvenate_every = \"2m\"\n",
			"at least 2 nodes"},
		{"fault node out of range", minimalSpec + "[[fault]]\nat = \"1s\"\nkind = \"deadlock\"\nnode = 3\n",
			"node 3 out of range"},
		{"brick assert without bricks", minimalSpec + "[assert]\nlost_sessions = 0\n",
			"require cluster store ssm-cluster"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("test.toml", tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want fragment %q", err, tc.frag)
			}
		})
	}
}

// TestGoldenRoundTrip proves Marshal is a faithful inverse of Parse over
// every shipped scenario: parse(marshal(parse(f))) == parse(f).
func TestGoldenRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.toml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario specs found: %v", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := Parse(p, string(src))
			if err != nil {
				t.Fatal(err)
			}
			round, err := Parse(p+"#roundtrip", orig.Marshal())
			if err != nil {
				t.Fatalf("re-parse of marshalled spec failed: %v\n%s", err, orig.Marshal())
			}
			if !reflect.DeepEqual(orig, round) {
				t.Fatalf("round-trip drift:\noriginal: %+v\nround:    %+v\nmarshal:\n%s", orig, round, orig.Marshal())
			}
		})
	}
}

func TestKindTokensCoverInjectorVocabulary(t *testing.T) {
	toks := KindTokens()
	if !sort.StringsAreSorted(toks) {
		t.Fatal("KindTokens not sorted")
	}
	if len(toks) != len(kindNames) {
		t.Fatalf("len = %d, want %d", len(toks), len(kindNames))
	}
	for _, tok := range toks {
		if kindToken(kindNames[tok]) != tok {
			t.Fatalf("kindToken(%v) = %q, want %q", kindNames[tok], kindToken(kindNames[tok]), tok)
		}
	}
}

// FuzzScenarioParse: Parse never panics, and any spec it accepts
// round-trips through Marshal to a structurally identical spec — the
// property TestGoldenRoundTrip checks on the shipped specs, over
// arbitrary input. The checked-in corpus holds every scenarios/*.toml
// plus malformed inputs.
func FuzzScenarioParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse("fuzz.toml", src)
		if err != nil {
			return
		}
		round, err := Parse("fuzz.toml#roundtrip", s.Marshal())
		if err != nil {
			t.Fatalf("re-parse of marshalled spec failed: %v\ninput:\n%s\nmarshal:\n%s", err, src, s.Marshal())
		}
		if !reflect.DeepEqual(s, round) {
			t.Fatalf("round-trip drift:\noriginal: %+v\nround:    %+v\nmarshal:\n%s", s, round, s.Marshal())
		}
	})
}
