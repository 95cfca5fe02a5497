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
// LOAD.json) and printed as a human table on stdout. An invocation it
// refuses before sending anything — a missing -scenario or -target, a
// positional argument, a scenario it cannot read — exits 2; a run that
// aborted or saw any unexpected error exits 1, so CI can gate on it
// directly. docs/LOADGEN.md documents the scenario schema and the report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"relm/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	err := run(os.Args[1:], os.Stdout)
	var refused refusal
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.As(err, &refused):
		log.Print("relm-loadgen: ", err)
		os.Exit(2)
	default:
		log.Print("relm-loadgen: ", err)
		os.Exit(1)
	}
}

// refusal is an invocation refused before any load was sent.
type refusal struct{ error }

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("relm-loadgen", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "scenario JSON to generate the load from")
		target       = fs.String("target", "", "base URL of the router or node under test")
		out          = fs.String("out", "LOAD.json", "report JSON output path")
		runID        = fs.String("run-id", "", "session-ID namespace for this run (default: random)")
		quiet        = fs.Bool("quiet", false, "suppress progress logging")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return refusal{err}
	}
	switch {
	case *scenarioPath == "" || *target == "":
		return refusal{errors.New("need -scenario and -target")}
	case fs.NArg() > 0:
		return refusal{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	sc, err := loadgen.LoadScenario(*scenarioPath)
	if err != nil {
		return refusal{err}
	}
	opts := loadgen.Options{Target: *target, RunID: *runID}
	if !*quiet {
		opts.Logf = log.Printf
	}
	d, err := loadgen.NewDriver(opts)
	if err != nil {
		return refusal{err}
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
			return err
		}
		fmt.Fprint(w, rep.Table())
		if !*quiet {
			log.Printf("relm-loadgen: report written to %s", *out)
		}
	}
	if runErr != nil {
		return fmt.Errorf("run aborted: %w", runErr)
	}
	if rep.UnexpectedErrors() > 0 {
		return fmt.Errorf("%d unexpected errors", rep.UnexpectedErrors())
	}
	return nil
}
