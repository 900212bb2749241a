// Command bench is the repository's benchmark: it builds ebid-server and
// ebid-proxy, runs four workloads against them as real OS processes over
// loopback sockets — an open loop at a frozen arrival rate, then a closed
// loop of a frozen op count, or the paper's recovery experiment — checks
// every response, and reports end-to-end and per-layer metrics by name.
//
//	go run ./bench -seed 1                 # all workloads, untraced + traced, writes results JSON
//	go run ./bench -smoke                  # the same in a few seconds each
//	go run ./bench -repeat 5               # spread of every gated metric against its bound
//	go run ./bench -compare a.json b.json  # per-(metric, workload) deltas against the bounds
//	go run ./bench -workload browse_direct -seed 3 -seconds 24 -trace 0   # one run, one JSON line
//
// Run it from the repository root. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// defaultSeconds is the run length BENCHMARK.json freezes: long enough
// for 12 microreboots and 5 restarts at their safe spacing, and for a
// 14 s open loop on the steady workloads.
const defaultSeconds = 24

func main() {
	workload := flag.String("workload", "", "run this one workload once and print one JSON result line (the BENCHMARK.json contract)")
	seed := flag.Int64("seed", 1, "workload seed: the request stream and its arrival times depend on nothing else")
	seconds := flag.Int("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "with -workload: 1 adds the traced in-process replay and prints the per-layer metrics")
	smoke := flag.Bool("smoke", false, "4 s runs with 2 microreboots and 1 restart, for a quick local check")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and report each gated metric's spread")
	compare := flag.Bool("compare", false, "compare two results files given as arguments")
	out := flag.String("out", filepath.Join(workRoot, "results.json"), "where the results JSON goes")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files"))
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *smoke {
		*seconds = 4
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	// Every sender blocks in system calls and holds its P while it does:
	// with more Ps than senders nothing runnable ever waits for one. And
	// the generator's collector should run rarely (it is off altogether
	// inside timed phases).
	runtime.GOMAXPROCS(conns + 2)
	debug.SetGCPercent(400)

	serverBin, proxyBin, err := buildBinaries()
	if err != nil {
		fatal(err)
	}
	runDir, err := filepath.Abs(filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal(err)
	}
	// However the run ends — normally, on a failed check, on a signal —
	// no process it started survives it, and its scratch files go.
	cleanup := func() {
		sweepAll()
		_ = os.RemoveAll(runDir) // a leftover is harmless
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	code := 0
	defer func() {
		cleanup()
		os.Exit(code)
	}()
	base := runConfig{seconds: *seconds, bins: [2]string{serverBin, proxyBin}, runDir: runDir, log: os.Stderr}

	if *workload != "" {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 2
			return
		}
		cfg := base
		cfg.w, cfg.seed, cfg.trace, cfg.setups = w, *seed, *trace == 1, 3
		if cfg.trace {
			cfg.setups = 1
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			return
		}
		printRun(os.Stdout, res, cfg.trace)
		if err := printContractLine(os.Stdout, res, cfg.trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			return
		}
		if len(res.Violations) > 0 {
			code = 1
		}
		return
	}

	file := resultsFile{Meta: newMeta(*seed, *seconds, *repeat)}
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range workloads {
			cfg := base
			// Every repetition gets its own stream; the layer numbers
			// are taken once.
			cfg.w, cfg.seed, cfg.trace, cfg.setups = w, *seed+int64(rep), rep == 0, 3
			fmt.Fprintf(os.Stderr, "== %s (seed %d, %d s)\n", w.name, cfg.seed, cfg.seconds)
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				code = 1
				return
			}
			printRun(os.Stdout, res, cfg.trace)
			file.Runs = append(file.Runs, res)
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "bench: %s: CORRECTNESS: %s\n", w.name, v)
				code = 1
			}
		}
	}
	file.summarise()
	if *repeat > 1 {
		file.printSummary(os.Stdout)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
		return
	}
	fmt.Fprintf(os.Stderr, "results written to %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	sweepAll()
	os.Exit(1)
}
