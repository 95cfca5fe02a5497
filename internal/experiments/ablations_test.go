package experiments

import (
	"strings"
	"testing"
)

func TestAblationsRegistered(t *testing.T) {
	for _, id := range []string{"ablation-gbo", "ablation-relm-delta", "ablation-reuse"} {
		if _, err := Run(id, quickCfg()); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestAblationRelMDeltaTradeoff(t *testing.T) {
	res := AblationRelMDelta(Config{Seed: 1})
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Large safety factors must be safe (no aborts) and slower than small
	// ones; the paper's δ = 0.1 sits before the performance cliff.
	byDelta := map[float64]AblationRelMDeltaRow{}
	for _, row := range res.Rows {
		byDelta[row.Delta] = row
	}
	if byDelta[0.3].Aborts > 0 {
		t.Error("δ=0.3 must be abort-free")
	}
	if byDelta[0.1].RuntimeMin > byDelta[0.3].RuntimeMin {
		t.Errorf("δ=0.1 (%v) should be faster than δ=0.3 (%v)", byDelta[0.1].RuntimeMin, byDelta[0.3].RuntimeMin)
	}
}

func TestAblationGBOFullNotWorstEverywhere(t *testing.T) {
	res := AblationGBO(quickCfg())
	// Per app, full GBO must not be the strictly worst variant: the two
	// mechanisms should compose, not interfere.
	byApp := map[string]map[string]float64{}
	for _, row := range res.Rows {
		if byApp[row.App] == nil {
			byApp[row.App] = map[string]float64{}
		}
		byApp[row.App][row.Variant] = row.MeanPct
	}
	for app, m := range byApp {
		full := m["full GBO"]
		worst := 0.0
		for _, pct := range m {
			if pct > worst {
				worst = pct
			}
		}
		if full >= worst && len(m) == 4 && full > m["none (BO)"]*1.5 {
			t.Errorf("%s: full GBO is the worst variant (%v vs worst %v)", app, full, worst)
		}
	}
}

func TestAblationReuseSavesExperiments(t *testing.T) {
	res := AblationReuse(Config{Seed: 1, Reps: 2})
	out := res.String()
	if strings.Contains(out, "failed to match") {
		t.Fatalf("warm sessions must match:\n%s", out)
	}
	if !strings.Contains(out, "matched SVM models: false") {
		t.Fatalf("cross-workload matching must be refused:\n%s", out)
	}
}
