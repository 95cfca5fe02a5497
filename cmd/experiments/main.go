// Command experiments regenerates the paper's tables and figures on the
// simulated cluster. Any refusal or failure exits 2.
//
// Usage:
//
//	experiments -list
//	experiments -id figure4 [-seed 1] [-reps 5]
//	experiments -all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"relm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		id    = fs.String("id", "", "experiment id to run (see -list)")
		all   = fs.Bool("all", false, "run every registered experiment")
		list  = fs.Bool("list", false, "list experiment ids")
		seed  = fs.Uint64("seed", 1, "random seed")
		reps  = fs.Int("reps", 0, "repetitions (0 = per-experiment default)")
		quick = fs.Bool("quick", false, "reduced budgets for a fast pass")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 0 {
		return fmt.Errorf("-reps %d: want >= 0", *reps)
	}

	cfg := experiments.Config{Seed: *seed, Reps: *reps, Quick: *quick}
	var ids []string
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Fprintf(w, "%-20s %s\n", id, experiments.Describe(id))
		}
	case *all:
		ids = experiments.IDs()
	case *id != "":
		ids = []string{*id}
	default:
		fs.Usage()
		return errors.New("want -list, -all or -id")
	}
	for _, id := range ids {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
	}
	return nil
}
