// Command relm-loadgen is the scenario-driven load harness: it generates
// a reproducible set of session lifecycles from a declarative scenario and
// drives them against a relm-router or relm-serve target, and reports
// bucket-exact per-stage percentiles, sustained throughput, and an error
// breakdown.
//
//	relm-loadgen -scenario scripts/scenarios/smoke.json -target http://localhost:8080
//
// The scenario is the whole load: its seed fixes every session, and its
// concurrency and request_timeout_ms fields size the worker pool and the
// per-request deadline. The report is written as JSON to -out (default
// LOAD.json) and printed as a human table on stdout. Exit status is
// non-zero when the run saw any unexpected error, so CI can gate on it
// directly. docs/LOADGEN.md documents the scenario schema and the report.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"relm/internal/loadgen"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON to generate the load from")
		target       = flag.String("target", "", "base URL of the router or node under test")
		out          = flag.String("out", "LOAD.json", "report JSON output path")
		runID        = flag.String("run-id", "", "session-ID namespace for this run (default: random)")
		quiet        = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()
	log.SetFlags(0)

	if *scenarioPath == "" || *target == "" {
		log.Fatal("relm-loadgen: need -scenario and -target")
	}
	sc, err := loadgen.LoadScenario(*scenarioPath)
	if err != nil {
		log.Fatalf("relm-loadgen: %v", err)
	}
	opts := loadgen.Options{Target: *target, RunID: *runID}
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
		log.Printf("relm-loadgen: driving scenario %s (%d sessions, seed %d) against %s",
			sc.Name, sc.Sessions, sc.Seed, *target)
	}
	rep, runErr := d.Run(ctx, sc)
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
