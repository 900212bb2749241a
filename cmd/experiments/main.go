// Command experiments regenerates every table and figure of the
// microreboot paper's evaluation and prints them in paper-style form,
// with the paper's own numbers alongside for comparison. It is also the
// scenario-campaign runner: -scenario interprets declarative chaos
// specs, -matrix runs the builtin fault × store × routing campaign.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-only table2,figure1,...] [-cluster-store fasts|ssm-cluster]
//	experiments -list
//	experiments [-quick] -scenario <file.toml|dir> [-matrix] [-matrix-out FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	quick := flag.Bool("quick", false, "run shortened experiments (seconds instead of minutes)")
	seed := flag.Int64("seed", 42, "simulation seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all; -list shows them)")
	clusterStore := flag.String("cluster-store", "fasts",
		"session store shared by the cluster experiments (figures 3/4, section61): fasts or ssm-cluster")
	list := flag.Bool("list", false, "list experiment ids and discovered scenario specs, then exit")
	scenarioPath := flag.String("scenario", "", "run scenario spec(s): a .toml file or a directory of them")
	matrix := flag.Bool("matrix", false, "also run the builtin fault × store × routing scenario matrix")
	matrixOut := flag.String("matrix-out", "", "write the campaign pass/fail matrix as JSON to this file")
	flag.Parse()
	switch *clusterStore {
	case "fasts", "ssm-cluster":
	default:
		fmt.Fprintf(os.Stderr, "unknown -cluster-store %q (want fasts or ssm-cluster)\n", *clusterStore)
		os.Exit(2)
	}

	// An explicitly passed -seed pins the seed even when it is zero;
	// otherwise the harness default (42) applies.
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	o := experiments.Options{Quick: *quick, Seed: *seed, SeedSet: seedSet, ClusterStore: *clusterStore}

	if *list {
		listAll()
		return
	}
	if *scenarioPath != "" || *matrix {
		os.Exit(runScenarios(o, *scenarioPath, *matrix, *matrixOut))
	}
	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	start := time.Now()
	var fig1 *experiments.Figure1Result
	var fig3 *experiments.Figure3Result

	if run("table1") {
		section("Table 1")
		fmt.Println(experiments.Table1(o))
	}
	if run("table2") {
		section("Table 2")
		fmt.Println(experiments.Table2(o))
	}
	if run("table3") {
		section("Table 3")
		fmt.Println(experiments.Table3(o))
	}
	if run("figure1") {
		section("Figure 1")
		fig1 = experiments.Figure1(o)
		fmt.Println(fig1)
	}
	if run("figure2") {
		section("Figure 2")
		fmt.Println(experiments.Figure2(o))
	}
	if run("figure3") {
		section("Figure 3")
		fig3 = experiments.Figure3(o)
		fmt.Println(fig3)
	}
	if run("figure4") || run("table4") {
		section("Figure 4 / Table 4")
		fmt.Println(experiments.Figure4(o))
	}
	if run("table5") {
		section("Table 5")
		fmt.Println(experiments.Table5(o))
	}
	if run("table6") {
		section("Table 6")
		fmt.Println(experiments.Table6(o))
	}
	if run("figure5") {
		section("Figure 5")
		fmt.Println(experiments.Figure5Left(o))
		micro, restart := 78.0, 3917.0
		if fig1 != nil && fig1.MicroAvgPerRecovery > 0 {
			micro, restart = fig1.MicroAvgPerRecovery, fig1.RestartAvgPerRecovery
		}
		fmt.Println(experiments.Figure5Right(micro, restart))
	}
	if run("figure6") {
		section("Figure 6")
		fmt.Println(experiments.Figure6(o))
	}
	if run("ablation") {
		section("Ablation (extension): sentinel-to-crash delay")
		fmt.Println(experiments.AblationDelay(o, ""))
	}
	if run("section61") {
		section("Section 6.1")
		if fig1 == nil {
			fig1 = &experiments.Figure1Result{MicroAvgPerRecovery: 78, RestartAvgPerRecovery: 3917}
		}
		if fig3 == nil {
			fig3 = experiments.Figure3(o)
		}
		fmt.Println(experiments.Section61(o, fig1, fig3))
	}

	fmt.Fprintf(os.Stderr, "all experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
}

// movedToScenarios names the scenario spec that replaced each extension
// experiment -only used to accept.
var movedToScenarios = map[string]string{
	"brickcrash": "scenarios/brickcrash.toml",
	"brickslow":  "scenarios/brickslow.toml",
	"fleet":      "scenarios/fleet.toml (control arm: scenarios/fleet-roundrobin.toml)",
}

// parseOnly turns a -only list into the set of experiment ids to run
// (empty: all). table4 is accepted as an alias of figure4, which prints
// it. Any other id outside the catalog is an error that names the valid
// ids and, for an extension experiment that became a scenario spec, the
// -scenario run that replaces it.
func parseOnly(list string) (map[string]bool, error) {
	want := map[string]bool{}
	known := map[string]bool{"table4": true}
	var ids []string
	for _, e := range experiments.Catalog() {
		known[e.ID] = true
		ids = append(ids, e.ID)
	}
	for _, id := range strings.Split(list, ",") {
		id = strings.ToLower(strings.TrimSpace(id))
		switch {
		case id == "":
		case known[id]:
			want[id] = true
		case movedToScenarios[id] != "":
			return nil, fmt.Errorf("-only %s: now a scenario spec, run -scenario %s (experiment ids: %s)",
				id, movedToScenarios[id], strings.Join(ids, ","))
		default:
			return nil, fmt.Errorf("-only: unknown experiment id %q (experiment ids: %s)",
				id, strings.Join(ids, ","))
		}
	}
	return want, nil
}

func section(title string) {
	fmt.Println(strings.Repeat("=", 78))
	fmt.Println("  " + title)
	fmt.Println(strings.Repeat("=", 78))
}

// listAll prints every -only id and every scenario spec discovered under
// ./scenarios, each with its one-line description.
func listAll() {
	fmt.Println("experiments (-only):")
	for _, e := range experiments.Catalog() {
		fmt.Printf("  %-12s %s\n", e.ID, e.Description)
	}
	specs, err := scenario.LoadDir("scenarios")
	if err != nil {
		fmt.Printf("\nscenarios: none discovered (%v)\n", err)
		return
	}
	fmt.Println("\nscenarios (-scenario scenarios/<name>.toml, or -scenario scenarios for all):")
	for _, s := range specs {
		name := s.Name
		if s.ExpectFail {
			name += " (negative control)"
		}
		fmt.Printf("  %-22s %s\n", name, s.Description)
	}
	fmt.Println("\nbuiltin matrix (-matrix):")
	for _, s := range scenario.MatrixSpecs() {
		fmt.Printf("  %-40s %s\n", s.Name, s.Description)
	}
}

// runScenarios runs the requested scenario campaign and returns the
// process exit code.
func runScenarios(o experiments.Options, path string, matrix bool, out string) int {
	var specs []*scenario.Spec
	if path != "" {
		st, err := os.Stat(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if st.IsDir() {
			specs, err = scenario.LoadDir(path)
		} else {
			var s *scenario.Spec
			s, err = scenario.LoadFile(path)
			specs = []*scenario.Spec{s}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if matrix {
		specs = append(specs, scenario.MatrixSpecs()...)
	}
	section("Scenario campaign")
	c, err := scenario.RunCampaign(specs, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, r := range c.Results {
		fmt.Println(r.Outcome)
	}
	fmt.Println()
	fmt.Print(c.Table())
	fmt.Fprintf(os.Stderr, "campaign completed in %v\n", c.Elapsed)
	if out != "" {
		blob, err := c.JSON()
		if err == nil {
			err = os.WriteFile(out, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "matrix-out:", err)
			return 2
		}
		fmt.Fprintln(os.Stderr, "wrote", out)
	}
	if !c.Passed() {
		return 1
	}
	return 0
}
