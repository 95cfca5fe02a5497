package relm_test

import (
	"strings"
	"testing"

	"relm"
	"relm/internal/service"
	"relm/internal/store"
)

func TestPublicAPISimulate(t *testing.T) {
	wl, err := relm.WorkloadByName("K-means")
	if err != nil {
		t.Fatal(err)
	}
	res, prof := relm.Simulate(relm.ClusterA(), wl, relm.DefaultConfig(), 1)
	if res.RuntimeSec <= 0 || prof == nil {
		t.Fatal("simulation failed")
	}
	st := relm.GenerateStats(prof)
	if st.MhMB != 4404 {
		t.Fatalf("stats heap = %v", st.MhMB)
	}
}

func TestPublicAPIWorkloads(t *testing.T) {
	if len(relm.Workloads()) != 5 {
		t.Fatal("five benchmark workloads expected")
	}
	if len(relm.TPCHWorkloads()) != 22 {
		t.Fatal("22 TPC-H queries expected")
	}
	if _, err := relm.WorkloadByName("unknown"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestPublicAPIRelMPipeline(t *testing.T) {
	wl, _ := relm.WorkloadByName("PageRank")
	ev := relm.NewEvaluator(relm.ClusterA(), wl, 1)
	tuner := relm.NewRelM(relm.ClusterA())
	cfg, cands, err := tuner.TuneWorkload(ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("recommendation invalid: %v", err)
	}
	if len(cands) != 4 {
		t.Fatalf("candidates = %d, want one per container size", len(cands))
	}
	res, _ := relm.Simulate(relm.ClusterA(), wl, cfg, 99)
	if res.Aborted {
		t.Fatal("RelM recommendation aborted")
	}
}

func TestPublicAPIBlackBoxTuners(t *testing.T) {
	cl := relm.ClusterA()
	wl, _ := relm.WorkloadByName("SVM")
	ev := relm.NewEvaluator(cl, wl, 2)
	if _, found := relm.DriveTuner(relm.NewBOTuner(cl, wl, relm.BOOptions{Seed: 2, MaxIterations: 3, MinNewSamples: 1}), ev); !found {
		t.Fatal("BO found nothing")
	}

	ev2 := relm.NewEvaluator(cl, wl, 3)
	gbo := relm.NewGBOTuner(cl, wl, relm.BOOptions{Seed: 3, MaxIterations: 3, MinNewSamples: 1})
	if _, found := relm.DriveTuner(gbo, ev2); !found || gbo.Model() == nil {
		t.Fatal("GBO failed")
	}

	ev3 := relm.NewEvaluator(cl, wl, 4)
	dd := relm.NewDDPGTuner(cl, wl, nil, relm.DDPGOptions{MaxSteps: 3, Seed: 4})
	if _, found := relm.DriveTuner(dd, ev3); !found || dd.Agent() == nil {
		t.Fatal("DDPG failed")
	}
}

// TestSuggestIsARead: every incremental tuner's Suggest changes nothing.
// Beside a lead tuner driven suggest, then observe, one twin observes the
// same samples without ever asking and another asks three times before
// each. Both must end where the lead does: the same Done, Best and next
// suggestion.
func TestSuggestIsARead(t *testing.T) {
	cl := relm.ClusterA()
	tuners := map[string]func(relm.Workload) relm.Tuner{
		"relm": func(wl relm.Workload) relm.Tuner { return relm.NewRelMStepTuner(cl, wl) },
		"bo": func(wl relm.Workload) relm.Tuner {
			return relm.NewBOTuner(cl, wl, relm.BOOptions{Seed: 3, MaxIterations: 4})
		},
		"gbo": func(wl relm.Workload) relm.Tuner {
			return relm.NewGBOTuner(cl, wl, relm.BOOptions{Seed: 3, MaxIterations: 4})
		},
		"ddpg": func(wl relm.Workload) relm.Tuner {
			return relm.NewDDPGTuner(cl, wl, nil, relm.DDPGOptions{Seed: 3, MaxSteps: 4})
		},
	}
	for name, build := range tuners {
		for _, wlName := range []string{"K-means", "WordCount"} {
			wl, _ := relm.WorkloadByName(wlName)
			ev := relm.NewEvaluator(cl, wl, 7)
			lead, silent, eager := build(wl), build(wl), build(wl)
			for steps := 0; !lead.Done() && steps < 40; steps++ {
				s := ev.Eval(lead.Suggest())
				lead.Observe(s)
				silent.Observe(s)
				eager.Suggest()
				eager.Suggest()
				eager.Suggest()
				eager.Observe(s)
			}
			if !lead.Done() {
				t.Fatalf("%s/%s: the lead tuner never finished", name, wlName)
			}
			for twin, tu := range map[string]relm.Tuner{"never asked": silent, "asked 3x a step": eager} {
				lb, lok := lead.Best()
				tb, tok := tu.Best()
				if tu.Done() != lead.Done() || tok != lok || tb.Config != lb.Config || tb.Objective != lb.Objective || tu.Suggest() != lead.Suggest() {
					t.Errorf("%s/%s: the twin %s ends done=%v best=%v (%v) next %v; the lead done=%v best=%v (%v) next %v", name, wlName, twin,
						tu.Done(), tb.Config, tok, tu.Suggest(), lead.Done(), lb.Config, lok, lead.Suggest())
				}
			}
		}
	}
}

func TestPublicAPIExhaustive(t *testing.T) {
	wl, _ := relm.WorkloadByName("WordCount")
	ev := relm.NewEvaluator(relm.ClusterA(), wl, 5)
	best, samples := relm.ExhaustiveSearch(ev)
	if len(samples) == 0 || best.RuntimeSec <= 0 {
		t.Fatal("exhaustive search failed")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := relm.ExperimentIDs()
	if len(ids) < 25 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	out, err := relm.RunExperiment("table6", relm.ExperimentConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 6") {
		t.Fatal("table6 output malformed")
	}
}

// TestPublicAPIDurableService drives the durable tuning service as
// relm-serve wires it, with the facade's simulator standing in for the
// cluster: a session journaled to a file-backed store survives a manager
// restart with its history intact.
func TestPublicAPIDurableService(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := service.Open(service.Options{Workers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	created, err := m.Create(service.Spec{Backend: "bo", Workload: "K-means", Seed: 2, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		cfg, done, err := m.Suggest(created.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		res, _ := relm.Simulate(relm.ClusterA(), mustWorkloadFacade(t, "K-means"), cfg, uint64(10+step))
		if _, err := m.Observe(created.ID, service.Observation{Config: cfg, RuntimeSec: res.RuntimeSec, Aborted: res.Aborted}); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := m.History(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // snapshots and releases the store

	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := service.Open(service.Options{Workers: 1, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.History(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(hist) {
		t.Fatalf("restored history has %d entries, want %d", len(got), len(hist))
	}
	if mt := m2.Metrics(); !mt.Persistence || mt.Sessions != 1 {
		t.Fatalf("metrics after restore: %+v", mt)
	}
}

func mustWorkloadFacade(t *testing.T, name string) relm.Workload {
	t.Helper()
	wl, err := relm.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}
