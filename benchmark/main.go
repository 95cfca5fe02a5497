// Command benchmark is the repository's benchmark of record: four named
// workloads, end-to-end numbers from an untraced run, per-layer numbers
// from a traced one, and output checks that refuse to report a run whose
// answers are wrong. See README.md beside this file.
//
// One run (what BENCHMARK.json's command invokes):
//
//	benchmark --workload serve_light --seed 1 --seconds 10 --trace 0
//
// prints a table of the run's metrics and, as the last line of standard
// output, one JSON object. Without --workload it runs every workload
// untraced and traced, each in a child process of its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// defaultSeed is the seed of the recording run in BENCHMARK.json.
const defaultSeed = 20200614

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: serve_light, serve_bayes, tune_offline or recover_replay (empty: all, each untraced then traced, in child processes)")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed: same seed, same generated inputs")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase, in seconds (BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		scale    = flag.Float64("scale", 1, "shrink the fixed work counts (warm-up, WAL build) for smoke tests; 1 is the size of record")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file as JSON lines")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *scale <= 0 || *scale > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *scale))
	}
	res, err := runWorkload(*workload, runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: *scale, traceOut: *traceOut})
	if err == nil {
		err = res.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runWorkload(name string, o runOpts) (*result, error) {
	cc, err := loadCase(name)
	if err != nil {
		return nil, err
	}
	cc = cc.scaled(o.scale)
	switch cc.Kind {
	case "serve":
		return runServe(cc, o)
	case "offline":
		return runOffline(cc, o)
	case "recover":
		return runRecover(cc, o)
	}
	return nil, fmt.Errorf("cases/%s/case.json: unknown kind %q", name, cc.Kind)
}

// runAll runs every workload untraced then traced, each in a child process
// so resident memory, CPU time and collector state never leak from one
// measurement into the next.
func runAll(seed uint64, seconds, scale float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# nproc=%d go=%s seed=%d seconds=%g\n", runtime.NumCPU(), runtime.Version(), seed, seconds)
	code := 0
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace,
				"--scale", strconv.FormatFloat(scale, 'g', -1, 64))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s): %v\n", w, trace, err)
				code = 1
			}
		}
	}
	return code
}

// print writes the table and then the result line. A run only gets here
// with every output check passed.
func (r *result) print(w *os.File) error {
	defs, err := r.declared()
	if err != nil {
		return err
	}
	kind := "end-to-end (untraced)"
	if r.traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s: %s  ops=%d failed_ops=%d\n", r.workload, kind, r.attempted, r.failed)
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := r.metrics[d.Name]
		out.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
		samples := ""
		if n, ok := r.samples[d.Name]; ok {
			samples = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "%-36s %16.4f %-6s%s\n", d.Name, v, d.Unit, samples)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
