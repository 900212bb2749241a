package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultsFile is the JSON a suite run writes and -compare reads.
type resultsFile struct {
	Meta    meta         `json:"meta"`
	Runs    []*runResult `json:"runs"`
	Summary []summaryRow `json:"summary"`
}

type meta struct {
	Commit     string `json:"git_commit"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Repeat     int    `json:"repeat"`
	When       string `json:"when"`
}

func newMeta(seed int64, seconds, repeat int) meta {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return meta{
		Commit: commit, NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, Seconds: seconds, Repeat: repeat,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// summaryRow is one gated metric on one workload over all repetitions.
type summaryRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Min      float64   `json:"min"`
	Median   float64   `json:"median"`
	Max      float64   `json:"max"`
	Spread   float64   `json:"spread"` // IQR / median; for absolute bounds, the IQR itself
	Bound    float64   `json:"bound"`
	Steady   bool      `json:"within_bound"`
}

// applies reports whether a gated metric exists on a workload. failed_frac
// is the steady workloads' alone: on recover_single failed work is what the
// per-recovery metrics measure, not something to hold to 0.002.
func applies(md metricDef, w *workloadSpec) bool {
	if md.name == "failed_frac" {
		return !w.recover
	}
	return md.everywhere || w.recover
}

func (f *resultsFile) summarise() {
	f.Summary = nil
	for _, w := range workloads {
		for _, md := range gatedMetrics {
			if !applies(md, w) {
				continue
			}
			var vals []float64
			for _, r := range f.Runs {
				if r.Workload == w.name {
					vals = append(vals, r.Metrics[md.name])
				}
			}
			if len(vals) == 0 {
				continue
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			row := summaryRow{
				Workload: w.name, Metric: md.name, Unit: md.unit, Values: vals,
				Min: sorted[0], Median: median(vals), Max: sorted[len(sorted)-1], Bound: md.bound,
			}
			if md.abs {
				q1, q3 := quartiles(vals)
				row.Spread = q3 - q1
			} else {
				row.Spread = relSpread(vals)
			}
			row.Steady = row.Spread <= md.bound
			f.Summary = append(f.Summary, row)
		}
	}
}

func (f *resultsFile) printSummary(w io.Writer) {
	fmt.Fprintf(w, "\n%-16s %-30s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, r := range f.Summary {
		flag := ""
		if !r.Steady {
			flag = "  SPREAD EXCEEDS BOUND"
		}
		fmt.Fprintf(w, "%-16s %-30s %12.4g %12.4g %12.4g %8.3f %6.3f%s\n",
			r.Workload, r.Metric+" ["+r.Unit+"]", r.Min, r.Median, r.Max, r.Spread, r.Bound, flag)
	}
}

// printRun prints every metric of a run by name, with its unit.
func printRun(w io.Writer, r *runResult, layers bool) {
	spec, _ := findWorkload(r.Workload)
	fmt.Fprintf(w, "# %s seed=%d seconds=%d attempted=%d failed_outside_recovery=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed)
	for _, md := range gatedMetrics {
		if !applies(md, spec) {
			continue
		}
		n := ""
		if c, ok := r.Samples[md.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-34s %14.4f %s%s\n", md.name, r.Metrics[md.name], md.unit, n)
	}
	if layers {
		for _, md := range layerMetrics {
			fmt.Fprintf(w, "%-34s %14.4f %s\n", md.name, r.Metrics[md.name], md.unit)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "CORRECTNESS: %s\n", v)
	}
}

// contractMetrics lists the metric names of one half of BENCHMARK.json:
// its end-to-end metrics, or the per-layer ones (which take in the gated
// metrics that cannot be end-to-end there).
func contractMetrics(layers bool) []metricDef {
	var out []metricDef
	for _, md := range gatedMetrics {
		if md.contract != layers {
			out = append(out, md)
		}
	}
	if layers {
		out = append(out, layerMetrics...)
	}
	return out
}

// printContractLine prints the one JSON object the BENCHMARK.json
// contract wants as the last line of standard output.
func printContractLine(w io.Writer, r *runResult, layers bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(r.Violations) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, md := range contractMetrics(layers) {
		v := r.Metrics[md.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", md.name, v)
		}
		line.Metrics[md.name] = value{Value: v, Unit: md.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.summarise() // by today's bounds, whatever the file was judged by when it was written
	return &f, nil
}

// verdict of one (metric, workload) pairing between two results files.
func compareRow(md metricDef, a, b summaryRow) string {
	delta := b.Median - a.Median
	if md.better == "higher" {
		delta = -delta
	}
	// delta > 0: b is worse.
	limit := md.bound
	if !md.abs {
		limit = md.bound * math.Abs(a.Median)
	}
	switch {
	case len(a.Values) > 1 && len(b.Values) > 1 && (!a.Steady || !b.Steady):
		return "unresolved (spread exceeds bound)"
	case delta > limit:
		return "REGRESSION"
	case delta < -limit:
		return "better"
	}
	return "within bound"
}

// compareFiles prints, one row per workload and gated metric, how the
// second results file differs from the first, judged by the bounds.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s  commit %s  seed %d  ×%d\nb: %s  commit %s  seed %d  ×%d\n\n",
		pathA, a.Meta.Commit, a.Meta.Seed, a.Meta.Repeat, pathB, b.Meta.Commit, b.Meta.Seed, b.Meta.Repeat)
	fmt.Printf("%-16s %-30s %12s %12s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	worse := 0
	for _, ra := range a.Summary {
		for _, rb := range b.Summary {
			if ra.Workload != rb.Workload || ra.Metric != rb.Metric {
				continue
			}
			md, _ := gatedByName(ra.Metric)
			change := "n/a"
			if md.abs {
				change = fmt.Sprintf("%+.4f", rb.Median-ra.Median)
			} else if ra.Median != 0 {
				change = fmt.Sprintf("%+.1f%%", (rb.Median-ra.Median)/math.Abs(ra.Median)*100)
			}
			v := compareRow(md, ra, rb)
			if v == "REGRESSION" {
				worse++
			}
			fmt.Printf("%-16s %-30s %12.4g %12.4g %8s %6.3f  %s\n",
				ra.Workload, ra.Metric+" ["+ra.Unit+"]", ra.Median, rb.Median, change, md.bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d pairings regressed beyond their bound", worse)
	}
	return nil
}
