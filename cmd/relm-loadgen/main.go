// Command relm-loadgen is the trace-driven load harness: it generates a
// reproducible session-lifecycle trace from a declarative scenario (or
// replays a previously captured trace file) against a relm-router or
// relm-serve target, and reports bucket-exact per-stage percentiles,
// sustained throughput, and an error breakdown.
//
// Typical runs:
//
//	# generate from a scenario and drive a router
//	relm-loadgen -scenario scripts/scenarios/smoke.json -target http://localhost:8080
//
//	# materialize the trace only (no target needed)
//	relm-loadgen -scenario scripts/scenarios/soak.json -trace soak.trace
//
//	# replay a captured trace byte-for-byte
//	relm-loadgen -replay soak.trace -target http://localhost:8080
//
// The report is written as JSON to -out (default LOAD.json) and
// printed as a human table on stdout. Exit status is non-zero when the
// run saw any unexpected error, so CI can gate on it directly.
// docs/LOADGEN.md documents the scenario schema and the trace format.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"relm/internal/loadgen"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON to generate the trace from")
		replayPath   = flag.String("replay", "", "replay an existing trace file instead of generating")
		tracePath    = flag.String("trace", "", "write the generated trace to this path")
		target       = flag.String("target", "", "base URL of the router or node under test")
		out          = flag.String("out", "LOAD.json", "report JSON output path")
		runID        = flag.String("run-id", "", "session-ID namespace for this run (default: random)")
		concurrency  = flag.Int("concurrency", 0, "override the scenario's worker-pool size")
		timeout      = flag.Duration("timeout", 0, "override the scenario's per-request deadline")
		quiet        = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()
	log.SetFlags(0)

	if (*scenarioPath == "") == (*replayPath == "") {
		log.Fatal("relm-loadgen: need exactly one of -scenario or -replay")
	}

	var (
		tr  *loadgen.Trace
		sc  *loadgen.Scenario
		err error
	)
	switch {
	case *replayPath != "":
		tr, err = loadgen.ReadTraceFile(*replayPath)
		if err != nil {
			log.Fatalf("relm-loadgen: %v", err)
		}
	default:
		sc, err = loadgen.LoadScenario(*scenarioPath)
		if err != nil {
			log.Fatalf("relm-loadgen: %v", err)
		}
		tr, err = loadgen.Generate(sc)
		if err != nil {
			log.Fatalf("relm-loadgen: %v", err)
		}
	}

	if *tracePath != "" {
		if err := tr.WriteFile(*tracePath); err != nil {
			log.Fatalf("relm-loadgen: %v", err)
		}
		if !*quiet {
			log.Printf("relm-loadgen: wrote %d-session trace (%s of arrivals, %d ops) to %s",
				len(tr.Sessions), tr.Duration().Round(time.Millisecond), tr.Ops(), *tracePath)
		}
	}
	if *target == "" {
		if *tracePath == "" {
			log.Fatal("relm-loadgen: nothing to do — give -target to drive load, or -trace to write the trace")
		}
		return
	}

	opts := loadgen.Options{Target: *target, RunID: *runID}
	if sc != nil {
		opts.Concurrency = sc.Concurrency
		opts.RequestTimeout = sc.RequestTimeout()
	}
	if *concurrency > 0 {
		opts.Concurrency = *concurrency
	}
	if *timeout > 0 {
		opts.RequestTimeout = *timeout
	}
	if !*quiet {
		opts.Logf = log.Printf
	}
	d, err := loadgen.NewDriver(opts)
	if err != nil {
		log.Fatalf("relm-loadgen: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if !*quiet {
		log.Printf("relm-loadgen: replaying %d sessions (%d ops over %s of arrivals) against %s",
			len(tr.Sessions), tr.Ops(), tr.Duration().Round(time.Millisecond), *target)
	}
	rep, runErr := d.Run(ctx, tr)
	if rep != nil {
		if err := rep.WriteFile(*out); err != nil {
			log.Fatalf("relm-loadgen: %v", err)
		}
		fmt.Print(rep.Table())
		if !*quiet {
			log.Printf("relm-loadgen: report written to %s", *out)
		}
	}
	if runErr != nil {
		log.Fatalf("relm-loadgen: run aborted: %v", runErr)
	}
	if rep.UnexpectedErrors() > 0 {
		log.Fatalf("relm-loadgen: %d unexpected errors", rep.UnexpectedErrors())
	}
}
