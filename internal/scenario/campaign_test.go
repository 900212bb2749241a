package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func scenariosDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join("..", "..", "scenarios")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("scenarios dir missing: %v", err)
	}
	return dir
}

func TestLoadDirShippedLibrary(t *testing.T) {
	specs, err := LoadDir(scenariosDir(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 12 {
		t.Fatalf("shipped scenario library has %d specs, want >= 12", len(specs))
	}
	names := map[string]bool{}
	negatives := 0
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		if s.ExpectFail {
			negatives++
		}
		if s.Description == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
	}
	if negatives == 0 {
		t.Fatal("library carries no negative-control (expect_fail) scenario")
	}
	// The extension experiments exist only as these specs.
	for _, ported := range []string{"brickcrash", "brickslow", "fleet", "fleet-roundrobin"} {
		if !names[ported] {
			t.Errorf("extension experiment scenario %q missing from library", ported)
		}
	}
}

func TestLoadDirRejectsDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	spec := "name = \"twin\"\n[load]\nclients = 1\nrun = \"1s\"\n"
	for _, f := range []string{"a.toml", "b.toml"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadDir(dir)
	if err == nil {
		t.Fatal("duplicate scenario names accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `duplicate scenario name "twin"`) ||
		!strings.Contains(msg, "a.toml") || !strings.Contains(msg, "b.toml") {
		t.Fatalf("error does not name both files: %v", err)
	}
}

func TestMatrixSpecsCrossTheCampaignAxes(t *testing.T) {
	specs := MatrixSpecs()
	if len(specs) != 26 {
		t.Fatalf("matrix size = %d, want 26 (8 kinds × 2 stores × 2 routings − 6 brick×fasts skips)", len(specs))
	}
	names := map[string]bool{}
	stores, routings, kinds := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate matrix name %q", s.Name)
		}
		names[s.Name] = true
		stores[s.Cluster.Store] = true
		routings[s.Cluster.Routing] = true
		if len(s.Faults) != 1 {
			t.Fatalf("matrix spec %q has %d faults, want 1", s.Name, len(s.Faults))
		}
		kinds[kindToken(s.Faults[0].Kind)] = true
		// Every generated spec must satisfy the same validation a file
		// would: the matrix is not allowed to cheat the schema.
		if err := s.validate("matrix"); err != nil {
			t.Errorf("matrix spec %q fails validation: %v", s.Name, err)
		}
		// And must survive a Marshal/Parse round-trip, proving the whole
		// matrix is expressible as on-disk scenario files.
		round, err := Parse(s.Name, s.Marshal())
		if err != nil {
			t.Fatalf("matrix spec %q does not re-parse: %v\n%s", s.Name, err, s.Marshal())
		}
		if !reflect.DeepEqual(s, round) {
			t.Fatalf("matrix spec %q drifts through Marshal/Parse:\n%s", s.Name, s.Marshal())
		}
	}
	if !stores["fasts"] || !stores["ssm-cluster"] {
		t.Fatalf("stores covered = %v, want fasts and ssm-cluster", stores)
	}
	if !routings[RoutingRoundRobin] || !routings[RoutingShedLeast] {
		t.Fatalf("routings covered = %v", routings)
	}
	if len(kinds) != 8 {
		t.Fatalf("fault kinds covered = %v, want 8", kinds)
	}
}
