// Package sim is the facade over the cluster simulator: it runs a workload
// under a configuration on a cluster and returns both the run metrics and
// the profile artifact. The simulator substitutes for the paper's physical
// Spark/YARN testbed (see DESIGN.md §1).
package sim

import (
	"relm/internal/conf"
	"relm/internal/profile"
	"relm/internal/sim/cluster"
	"relm/internal/sim/exec"
	"relm/internal/sim/workload"
)

// Result re-exports the execution engine's run summary.
type Result = exec.Result

// Run simulates one application run. The seed controls all stochastic
// behaviour (task-time noise, failure sampling); the same inputs and seed
// reproduce the same run exactly.
func Run(cl cluster.Spec, wl workload.Spec, cfg conf.Config, seed uint64) (Result, *profile.Profile) {
	return exec.Run(cl, wl, cfg, seed)
}
