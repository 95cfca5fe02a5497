package experiments

import (
	"math"
	"strings"
	"testing"

	"relm/internal/conf"
	"relm/internal/sim/cluster"
	"relm/internal/sim/workload"
	"relm/internal/tune"
)

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of DESIGN.md's per-experiment index.
	want := []string{
		"table4", "table5", "table6", "table7", "table8", "table9", "table10",
		"figure4", "figure5", "figure6", "figure7", "figure8", "figure9",
		"figure10", "figure11", "figure13", "figure16", "figure17",
		"figure18", "figure19", "figure20", "figure21", "figure22",
		"figure23", "figure24", "figure25", "figure26", "figure27",
	}
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %q not registered", id)
		}
		if Describe(id) == "" {
			t.Errorf("experiment %q has no description", id)
		}
	}
}

// TestCurveIsMonotone: the best-so-far curve Figure 20 plots has one entry
// per experiment, never rises, and is finite from the first completed run.
func TestCurveIsMonotone(t *testing.T) {
	for _, policy := range []string{"BO", "GBO", "DDPG"} {
		run := trainPolicy(policy, cluster.A(), workload.WordCount(), 3, 0)
		if len(run.Curve) != run.Iterations {
			t.Fatalf("%s: curve length %d != evals %d", policy, len(run.Curve), run.Iterations)
		}
		prev := math.Inf(1)
		for i, v := range run.Curve {
			if v > prev {
				t.Fatalf("%s: best-so-far curve rose at %d: %v > %v", policy, i, v, prev)
			}
			prev = v
		}
		if math.IsInf(prev, 1) {
			t.Fatalf("%s: no run completed in %d experiments", policy, run.Iterations)
		}
	}
}

// TestTimeToTop5Charges: the training cost stops at the first completed run
// at or under the bar, its own runtime included; an aborted run under the
// bar does not stop it; a history that never reaches the bar is charged in
// full.
func TestTimeToTop5Charges(t *testing.T) {
	ev := tune.NewEvaluator(cluster.A(), workload.KMeans(), 1)
	thin := conf.Default()
	thin.ContainersPerNode, thin.TaskConcurrency = 4, 1 // aborts early on K-means
	aborted, first, second := ev.Eval(thin), ev.Eval(conf.Default()), ev.Eval(conf.Default())
	if !aborted.Result.Aborted || first.Result.Aborted || second.Result.Aborted {
		t.Fatalf("want an abort then two completed runs, got aborted=%v,%v,%v",
			aborted.Result.Aborted, first.Result.Aborted, second.Result.Aborted)
	}
	fastest := min(first.RuntimeSec, second.RuntimeSec)
	if aborted.RuntimeSec >= fastest {
		t.Fatalf("aborted run %.0fs is not under the completed runs (%.0fs)", aborted.RuntimeSec, fastest)
	}
	for _, c := range []struct {
		name   string
		bar    float64
		iters  int
		stress float64
	}{
		{"first completed run at the bar", first.RuntimeSec, 2, aborted.RuntimeSec + first.RuntimeSec},
		{"only the aborted run under the bar", aborted.RuntimeSec, ev.Evals(), ev.TotalRuntime()},
		{"never reached", fastest - 1, ev.Evals(), ev.TotalRuntime()},
	} {
		iters, stress := timeToTop5(ev, c.bar)
		if iters != c.iters || stress != c.stress {
			t.Errorf("%s (bar %.1fs): charged %d runs, %.1fs; want %d, %.1fs", c.name, c.bar, iters, stress, c.iters, c.stress)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestFigure4Shapes(t *testing.T) {
	res := Figure4(quickCfg())
	byApp := map[string][]SweepPoint{}
	for _, p := range res.Points {
		byApp[p.App] = append(byApp[p.App], p)
	}
	// WordCount and SortByKey improve on thin containers (Obs 1).
	for _, app := range []string{"WordCount", "SortByKey"} {
		pts := byApp[app]
		if pts[3].Scaled >= 1 {
			t.Errorf("%s should speed up at n=4: scaled %v", app, pts[3].Scaled)
		}
	}
	// K-means fails at n=4 (§3.1).
	km := byApp["K-means"]
	if !km[3].Failed {
		t.Error("K-means must fail with 4 containers per node")
	}
	// CPU utilization rises with container count.
	wc := byApp["WordCount"]
	if wc[3].CPUUtil <= wc[0].CPUUtil {
		t.Error("CPU utilization must rise with thin containers")
	}
}

func TestFigure5Variability(t *testing.T) {
	res := Figure5(Config{Seed: 1, Reps: 5})
	totalFailures := 0
	aborts := 0
	for _, r := range res.Runs {
		totalFailures += r.Failures
		if r.Aborted {
			aborts++
		}
	}
	if totalFailures == 0 {
		t.Fatal("unsafe configurations must produce container failures")
	}
	if aborts == 0 {
		t.Fatal("some unsafe runs must abort")
	}
	if aborts == len(res.Runs) {
		t.Fatal("not every unsafe run aborts (high variability is the point)")
	}
}

func TestFigure6ConcurrencyPlateau(t *testing.T) {
	res := Figure6(quickCfg())
	byApp := map[string][]SweepPoint{}
	for _, p := range res.Points {
		byApp[p.App] = append(byApp[p.App], p)
	}
	// Every app improves from p=1 to its best point.
	for app, pts := range byApp {
		best := pts[0].Scaled
		for _, p := range pts {
			if p.Scaled < best {
				best = p.Scaled
			}
		}
		if best >= 1 && app != "PageRank" {
			t.Errorf("%s never improved with concurrency", app)
		}
	}
	// PageRank fails for p >= 2 region (the paper's OOM note).
	pr := byApp["PageRank"]
	failed := 0
	for _, p := range pr[1:] {
		if p.Failed {
			failed++
		}
	}
	if failed == 0 {
		t.Error("PageRank should fail at higher concurrency")
	}
}

func TestFigure7CacheCurves(t *testing.T) {
	res := Figure7(quickCfg())
	var svm []SweepPoint
	for _, p := range res.Points {
		if p.App == "SVM" {
			svm = append(svm, p)
		}
	}
	// SVM reaches hit ratio 1 once capacity ≥ ~0.5 (Obs 4 / Figure 7d).
	for _, p := range svm {
		if p.X >= 0.55 && p.HitRatio < 0.99 {
			t.Errorf("SVM at capacity %v: hit ratio %v", p.X, p.HitRatio)
		}
		if p.X <= 0.2 && p.HitRatio > 0.95 {
			t.Errorf("SVM at capacity %v: hit ratio %v (should miss)", p.X, p.HitRatio)
		}
	}
}

func TestFigure8NewRatioOneThrashes(t *testing.T) {
	res := Figure8(quickCfg())
	var nr1hi, nr2hi *HeatCell
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Capacity == 0.6 && c.NewRatio == 1 {
			nr1hi = c
		}
		if c.Capacity == 0.6 && c.NewRatio == 2 {
			nr2hi = c
		}
	}
	if nr1hi == nil || nr2hi == nil {
		t.Fatal("cells missing")
	}
	if !nr1hi.Failed && nr1hi.GCOver <= nr2hi.GCOver {
		t.Errorf("NR=1 must thrash vs NR=2 at cache 0.6: %v vs %v", nr1hi.GCOver, nr2hi.GCOver)
	}
}

func TestFigure9MinimumNearTwo(t *testing.T) {
	res := Figure9(quickCfg())
	if len(res.NewRatios) != 8 {
		t.Fatal("expected NR 1..8")
	}
	best := 0
	for i, v := range res.GCOver {
		if v > 0 && (res.GCOver[best] == 0 || v < res.GCOver[best]) {
			best = i
		}
	}
	if nr := res.NewRatios[best]; nr < 2 || nr > 3 {
		t.Errorf("GC-overhead minimum at NR=%d, expected 2-3", nr)
	}
	if res.GCOver[0] <= res.GCOver[1] {
		t.Error("NR=1 (Old < cache) must have higher overhead than NR=2")
	}
}

func TestFigure10ShuffleInteraction(t *testing.T) {
	res := Figure10(quickCfg())
	// At fixed NewRatio, GC overhead grows with shuffle capacity; at fixed
	// capacity 0.3, it grows with NewRatio (Eden shrink).
	get := func(nr int, cap float64) HeatCell {
		for _, c := range res.Cells {
			if c.NewRatio == nr && c.Capacity == cap {
				return c
			}
		}
		t.Fatalf("cell NR=%d cap=%v missing", nr, cap)
		return HeatCell{}
	}
	if get(1, 0.3).GCOver <= get(1, 0.05).GCOver {
		t.Error("GC overhead must rise with shuffle capacity at NR=1")
	}
	if get(3, 0.3).GCOver <= get(1, 0.3).GCOver {
		t.Error("GC overhead must rise with NewRatio at shuffle 0.3")
	}
}

func TestFigure11NewRatioContrast(t *testing.T) {
	res := Figure11(quickCfg())
	if !res.Exceeds[2] {
		t.Error("NewRatio 2 must exceed the physical cap (Figure 11 left)")
	}
	if res.Exceeds[5] {
		t.Error("NewRatio 5 must stay under the cap (Figure 11 right)")
	}
	if res.GCInterval[2] <= res.GCInterval[5] {
		t.Error("NewRatio 2 must collect less frequently")
	}
}

func TestTable5Ordering(t *testing.T) {
	res := Table5(Config{Seed: 1, Reps: 4})
	if len(res.Rows) != 4 {
		t.Fatal("Table 5 has four rows")
	}
	def := res.Rows[0]
	for i, row := range res.Rows[1:] {
		if !def.Aborted && row.RuntimeMin >= def.RuntimeMin*1.3 {
			t.Errorf("manual fix %d should not be much slower than the default", i+1)
		}
		if row.Aborted {
			t.Errorf("manual fix %d should be reliable", i+1)
		}
	}
}

func TestTable6MatchesPaperColumn(t *testing.T) {
	st := Table6(quickCfg()).Stats
	// The paper's example column: Mi=115, Mc=2300, Mu=770, P=2, H=0.3.
	if st.MiMB < 90 || st.MiMB > 140 {
		t.Errorf("Mi = %v, paper 115", st.MiMB)
	}
	if st.McMB < 2000 || st.McMB > 2800 {
		t.Errorf("Mc = %v, paper 2300", st.McMB)
	}
	if st.MuMB < 650 || st.MuMB > 900 {
		t.Errorf("Mu = %v, paper 770", st.MuMB)
	}
	if st.H < 0.2 || st.H > 0.45 {
		t.Errorf("H = %v, paper 0.3", st.H)
	}
}

func TestFigure13TraceStructure(t *testing.T) {
	res := Figure13(quickCfg())
	if len(res.Steps) < 4 {
		t.Fatal("expected several arbitrator steps")
	}
	actions := map[string]bool{}
	for _, s := range res.Steps {
		actions[s.Action] = true
	}
	for _, a := range []string{"init", "p--", "mc-=Mu", "final"} {
		if !actions[a] {
			t.Errorf("trace missing action %q", a)
		}
	}
}

func TestFigure22OverestimateWithoutFullGC(t *testing.T) {
	res := Figure22(quickCfg())
	var withGC, withoutGC []float64
	for _, p := range res.Points {
		if p.FullGC {
			withGC = append(withGC, p.MuEstimate)
		} else {
			withoutGC = append(withoutGC, p.MuEstimate)
		}
	}
	if len(withGC) == 0 || len(withoutGC) == 0 {
		t.Fatalf("need both profile kinds: %d with, %d without", len(withGC), len(withoutGC))
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(withoutGC) < 3*avg(withGC) {
		t.Errorf("no-full-GC profiles must grossly over-estimate Mu: %v vs %v", avg(withoutGC), avg(withGC))
	}
	// Estimates from full-GC profiles cluster near the true value.
	for _, v := range withGC {
		if v > 3*res.TrueMu {
			t.Errorf("full-GC estimate %v too far from true %v", v, res.TrueMu)
		}
	}
}

func TestFigure16RelMCheapest(t *testing.T) {
	res := Figure16(quickCfg())
	cost := map[string]map[string]float64{}
	for _, r := range res.Rows {
		if cost[r.App] == nil {
			cost[r.App] = map[string]float64{}
		}
		cost[r.App][r.Policy] = r.PctOfExh
	}
	for app, m := range cost {
		for policy, pct := range m {
			if policy == "RelM" {
				continue
			}
			if m["RelM"] > pct {
				t.Errorf("%s: RelM (%v%%) must be cheaper than %s (%v%%)", app, m["RelM"], policy, pct)
			}
		}
		if m["RelM"] > 3 {
			t.Errorf("%s: RelM overhead %v%% too high", app, m["RelM"])
		}
	}
}

func TestFigure17QualityBounds(t *testing.T) {
	res := Figure17(quickCfg())
	for _, row := range res.Rows {
		if row.Policy == "MaxResourceAllocation" {
			if row.Scaled != 1 {
				t.Errorf("%s default must scale to 1", row.App)
			}
			continue
		}
		// Black-box policies may recommend unreliable configurations (the
		// paper's GBO does for PageRank); those runs carry failure labels.
		if row.Scaled > 1.35 && row.Failures == 0 && !row.Aborted {
			t.Errorf("%s/%s recommendation much worse than default without failures: %v",
				row.App, row.Policy, row.Scaled)
		}
		if row.Policy == "Exhaustive" && row.Scaled > 1 {
			t.Errorf("%s: exhaustive best cannot be worse than default", row.App)
		}
		// RelM treats safety as a first-class goal: no aborts, and close to
		// or better than the default.
		if row.Policy == "RelM" {
			if row.Aborted {
				t.Errorf("%s: RelM recommendation aborted", row.App)
			}
			if row.Scaled > 1.2 {
				t.Errorf("%s: RelM recommendation worse than default: %v", row.App, row.Scaled)
			}
		}
	}
}

func TestTable9LogShape(t *testing.T) {
	res := Table9(quickCfg())
	if len(res.Rows) < 5 {
		t.Fatalf("BO log too short: %d", len(res.Rows))
	}
	for i := 0; i < 4; i++ {
		if !strings.HasPrefix(res.Rows[i].Sample, "0.") {
			t.Errorf("row %d should be a bootstrap sample", i)
		}
	}
}

func TestFigure21RelMSavesTime(t *testing.T) {
	res := Figure21(quickCfg())
	if res.TotalRelM >= res.TotalDefault {
		t.Fatalf("RelM must cut TPC-H time: %v vs %v", res.TotalRelM, res.TotalDefault)
	}
	saving := 1 - res.TotalRelM/res.TotalDefault
	if saving < 0.15 {
		t.Errorf("TPC-H saving %v too small (paper: 40%%)", saving)
	}
}

func TestFigure24PositiveCorrelation(t *testing.T) {
	res := Figure24(quickCfg())
	positive := 0
	for _, row := range res.Rows {
		if row.Spearman > 0 {
			positive++
		}
	}
	if positive < len(res.Rows)/2+1 {
		t.Errorf("utility ranking should correlate with runtime ranking for most apps: %d/%d", positive, len(res.Rows))
	}
}

func TestFigure27AgentTransfers(t *testing.T) {
	res := Figure27(quickCfg())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The cross-tested agent (5 samples) should not be dramatically worse
	// than the scratch-trained one (the paper's adaptability claim).
	cross, scratch := res.Rows[0].RuntimeMin, res.Rows[1].RuntimeMin
	if cross > scratch*1.6 {
		t.Errorf("cross-cluster agent too weak: %v vs %v", cross, scratch)
	}
	if res.Rows[0].Samples >= res.Rows[1].Samples {
		t.Error("cross-testing must use fewer samples")
	}
}

func TestTable4AndTable7Render(t *testing.T) {
	if !strings.Contains(Table4(quickCfg()).String(), "4404") {
		t.Error("Table 4 must show the 4404MB heap")
	}
	t7 := Table7(quickCfg()).String()
	for _, frag := range []string{"n=1 p=4", "n=2 p=1", "n=3 p=2", "n=4 p=2"} {
		if !strings.Contains(t7, frag) {
			t.Errorf("Table 7 missing %q", frag)
		}
	}
}

func TestAllExperimentsRenderNonEmpty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range IDs() {
		res, err := Run(id, quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.String() == "" {
			t.Errorf("%s renders empty", id)
		}
	}
}
