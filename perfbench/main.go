// Command perfbench is jobench's end-to-end benchmark. It drives the
// program in-process through its public functions, checks every answer
// against a correctness oracle, and prints each metric by name and unit,
// ending with one JSON result line:
//
//	go run . --workload plan --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	plan     OptimizeContext over 113 JOB queries x 4 tree shapes x 2
//	         estimators on imdb at scale 0.1
//	execute  ExecuteContext over the 113 JOB queries on imdb at scale 3
//	         with primary-key indexes only (not in BENCHMARK.json's set)
//	fleet    a router in front of two service replicas on loopback, fed
//	         the service mix
//
// Each is driven by one closed-loop client for a window of whole passes
// (in fleet, after an untimed warm pass), its times scaled to a reference
// host by probes of the host's speed (calib.go).
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 makes a
// separate traced run and reports the per-layer breakdown. The command
// exits non-zero when any answer fails its oracle.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "plan | execute | fleet")
	seed := fs.Int64("seed", 1, "orders the operations; the same seed gives the same sequence")
	seconds := fs.Int("seconds", 10, "minimum measured window, in seconds; windows end on whole passes")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *traced == 1,
	}
	ctx := context.Background()
	var (
		r   *report
		err error
	)
	switch *name {
	case "plan":
		r, err = runFacade(ctx, cfg, planBench())
	case "execute":
		r, err = runFacade(ctx, cfg, executeBench())
	case "fleet":
		r, err = runFleet(ctx, cfg)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (plan | execute | fleet)\n", *name)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	if err := r.write(stdout, specs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their checks\n", r.failed, r.attempted)
		return 1
	}
	return 0
}
