// Package experiments regenerates every table and figure of the paper's
// empirical study (§3) and evaluation (§6) on the simulated cluster. Each
// harness returns a typed result that prints itself one way, as a text
// table of the paper's corresponding artifact; the registry maps experiment
// IDs ("figure4", "table8", ...) to their runners for cmd/experiments.
// Every tuner is driven by tune.Drive, and a policy's training cost is
// charged by timeToTop5 alone.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all randomness; a fixed seed reproduces a run exactly.
	Seed uint64
	// Reps is the number of repetitions where the paper repeats runs
	// (failure studies, tuning-policy distributions).
	Reps int
	// Quick reduces repetition counts and budgets for fast test runs.
	Quick bool
}

func (c Config) reps(def int) int {
	if c.Reps > 0 {
		def = c.Reps
	}
	if c.Quick && def > 2 {
		def = 2
	}
	return def
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Runner produces a printable result.
type Runner func(Config) fmt.Stringer

// registry of all experiments by ID.
var registry = map[string]Runner{}

// descriptions for the CLI listing.
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(id string) string { return descriptions[id] }

// Run executes one experiment by ID.
func Run(id string, cfg Config) (fmt.Stringer, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(cfg), nil
}

// table is a small helper for fixed-width text tables.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	line(separators(widths))
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func separators(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
