package fault

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// firePattern runs n hits through f and returns which ones fired.
func firePattern(f *Failpoint, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = f.Eval() != nil
	}
	return out
}

func TestDisarmedEvalIsNil(t *testing.T) {
	f := Register("test.disarmed")
	if f.Eval() != nil || f.EvalTag("x") != nil {
		t.Fatal("disarmed failpoint fired")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	a := Register("test.idempotent")
	b := Register("test.idempotent")
	if a != b {
		t.Fatal("Register returned distinct failpoints for one name")
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	defer DisarmAll()
	f := Register("test.seq")
	sched := Schedule{Seed: 42, Rules: []Rule{
		{Point: "test.seq", Action: "error", Count: 7, Window: 50},
	}}
	if err := Apply(sched); err != nil {
		t.Fatal(err)
	}
	first := firePattern(f, 60)
	if err := Apply(sched); err != nil { // re-arm resets counters
		t.Fatal(err)
	}
	second := firePattern(f, 60)
	fires := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("hit %d: run1=%v run2=%v — schedule not deterministic", i, first[i], second[i])
		}
		if first[i] {
			fires++
		}
	}
	if fires != 7 {
		t.Fatalf("fired %d times over the full window, want 7", fires)
	}
}

func TestDifferentSeedDifferentSequence(t *testing.T) {
	defer DisarmAll()
	f := Register("test.seeddiff")
	rule := Rule{Point: "test.seeddiff", Action: "error", Count: 10, Window: 200}
	if err := Apply(Schedule{Seed: 1, Rules: []Rule{rule}}); err != nil {
		t.Fatal(err)
	}
	a := firePattern(f, 200)
	if err := Apply(Schedule{Seed: 2, Rules: []Rule{rule}}); err != nil {
		t.Fatal(err)
	}
	b := firePattern(f, 200)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fire patterns over 200 hits")
	}
}

func TestAfterAndWindowBounds(t *testing.T) {
	defer DisarmAll()
	f := Register("test.window")
	err := Apply(Schedule{Seed: 9, Rules: []Rule{
		{Point: "test.window", Action: "error", Count: 5, Window: 5, After: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pat := firePattern(f, 30)
	for i, fired := range pat {
		inWindow := i >= 10 && i < 15
		if fired != inWindow {
			t.Fatalf("hit %d fired=%v, want %v (count==window burst in [10,15))", i, fired, inWindow)
		}
	}
}

func TestMatchTagFilter(t *testing.T) {
	defer DisarmAll()
	f := Register("test.match")
	err := Apply(Schedule{Seed: 3, Rules: []Rule{
		{Point: "test.match", Action: "error", Count: 100, Window: 100, Match: "node-b"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if f.EvalTag("node-a") != nil {
		t.Fatal("rule matched the wrong tag")
	}
	if f.Eval() != nil {
		t.Fatal("match rule fired on a tagless hit")
	}
	if f.EvalTag("node-b") == nil {
		t.Fatal("rule did not match its tag")
	}
	st := Snapshot()
	if len(st.Rules) != 1 || st.Rules[0].Hits != 1 || st.Rules[0].Fired != 1 {
		t.Fatalf("snapshot counters wrong: %+v", st.Rules)
	}
}

func TestActions(t *testing.T) {
	defer DisarmAll()
	f := Register("test.actions")
	cases := []struct {
		action string
		arg    int
		check  func(t *testing.T, fire *Fire)
	}{
		{"error", 0, func(t *testing.T, fire *Fire) {
			if fire.Action != Error || !errors.Is(fire.Err, ErrInjected) {
				t.Fatalf("error action: %+v", fire)
			}
		}},
		{"enospc", 0, func(t *testing.T, fire *Fire) {
			if !errors.Is(fire.Err, syscall.ENOSPC) || !errors.Is(fire.Err, ErrInjected) {
				t.Fatalf("enospc should chain both ErrInjected and ENOSPC: %v", fire.Err)
			}
		}},
		{"torn", 12, func(t *testing.T, fire *Fire) {
			if fire.Action != Torn || fire.N != 12 || fire.Err == nil {
				t.Fatalf("torn action: %+v", fire)
			}
		}},
		{"latency", 3, func(t *testing.T, fire *Fire) {
			if fire.Action != Latency || fire.Delay != 3*time.Millisecond {
				t.Fatalf("latency action: %+v", fire)
			}
		}},
		{"stall", 0, func(t *testing.T, fire *Fire) {
			if fire.Action != Stall || fire.Delay != 2*time.Second {
				t.Fatalf("stall default: %+v", fire)
			}
		}},
		{"corrupt", 0, func(t *testing.T, fire *Fire) {
			if fire.Action != Corrupt || fire.N != 1 {
				t.Fatalf("corrupt default: %+v", fire)
			}
		}},
		{"drop", 0, func(t *testing.T, fire *Fire) {
			if fire.Action != Drop {
				t.Fatalf("drop action: %+v", fire)
			}
		}},
	}
	for _, tc := range cases {
		err := Apply(Schedule{Seed: 1, Rules: []Rule{
			{Point: "test.actions", Action: tc.action, Arg: tc.arg, Count: 1},
		}})
		if err != nil {
			t.Fatalf("%s: %v", tc.action, err)
		}
		fire := f.Eval()
		if fire == nil {
			t.Fatalf("%s: count=1 window=1 should fire on first hit", tc.action)
		}
		tc.check(t, fire)
	}
}

func TestApplyValidation(t *testing.T) {
	defer DisarmAll()
	Register("test.valid")
	bad := []Schedule{
		{Rules: []Rule{{Point: "no.such.point", Action: "error", Count: 1}}},
		{Rules: []Rule{{Point: "test.valid", Action: "frobnicate", Count: 1}}},
		{Rules: []Rule{{Point: "test.valid", Action: "error"}}}, // count 0
		{Rules: []Rule{{Point: "", Action: "error", Count: 1}}},
		{Rules: []Rule{{Point: "test.valid", Action: "error", Count: 1, After: -1}}},
	}
	for i, s := range bad {
		if err := Apply(s); err == nil {
			t.Fatalf("schedule %d should have been rejected", i)
		}
	}
	// A rejected schedule must not partially arm.
	if Snapshot().Armed {
		t.Fatal("failed Apply left the registry armed")
	}
}

func TestApplyReplacesWholesale(t *testing.T) {
	defer DisarmAll()
	a := Register("test.rep.a")
	b := Register("test.rep.b")
	if err := Apply(Schedule{Seed: 1, Rules: []Rule{{Point: "test.rep.a", Action: "error", Count: 10}}}); err != nil {
		t.Fatal(err)
	}
	if a.Eval() == nil {
		t.Fatal("a should be armed")
	}
	if err := Apply(Schedule{Seed: 1, Rules: []Rule{{Point: "test.rep.b", Action: "error", Count: 10}}}); err != nil {
		t.Fatal(err)
	}
	if a.Eval() != nil {
		t.Fatal("a should be disarmed after a schedule that omits it")
	}
	if b.Eval() == nil {
		t.Fatal("b should be armed")
	}
	DisarmAll()
	if b.Eval() != nil {
		t.Fatal("DisarmAll left b armed")
	}
}

func TestApplyFile(t *testing.T) {
	defer DisarmAll()
	f := Register("test.file")
	path := filepath.Join(t.TempDir(), "sched.json")
	buf, _ := json.Marshal(Schedule{Seed: 5, Rules: []Rule{
		{Point: "test.file", Action: "latency", Arg: 1, Count: 2, Window: 4},
	}})
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ApplyFile(path); err != nil {
		t.Fatal(err)
	}
	fires := 0
	for i := 0; i < 4; i++ {
		if f.Eval() != nil {
			fires++
		}
	}
	if fires != 2 {
		t.Fatalf("fired %d, want 2", fires)
	}
	if err := ApplyFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing schedule file should error")
	}
}

func TestSnapshotPlanned(t *testing.T) {
	defer DisarmAll()
	Register("test.snap")
	err := Apply(Schedule{Seed: 8, Rules: []Rule{
		{Point: "test.snap", Action: "error", Count: 3, Window: 100, After: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := Snapshot()
	if !st.Armed || st.Seed != 8 {
		t.Fatalf("snapshot header: %+v", st)
	}
	if len(st.Rules) != 1 || st.Rules[0].Planned != 3 {
		t.Fatalf("planned: %+v", st.Rules)
	}
}

func TestConcurrentEvalCountsExact(t *testing.T) {
	defer DisarmAll()
	f := Register("test.conc")
	const workers, perWorker = 8, 500
	err := Apply(Schedule{Seed: 11, Rules: []Rule{
		{Point: "test.conc", Action: "error", Count: 40, Window: 1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			n := 0
			for i := 0; i < perWorker; i++ {
				if f.Eval() != nil {
					n++
				}
			}
			done <- n
		}()
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += <-done
	}
	// 4000 hits fully traverse the window: exactly Count fires, regardless
	// of interleaving — the property the chaos determinism check relies on.
	if total != 40 {
		t.Fatalf("concurrent fires = %d, want exactly 40", total)
	}
	st := Snapshot()
	if st.Rules[0].Hits != workers*perWorker || st.Rules[0].Fired != 40 {
		t.Fatalf("counters: %+v", st.Rules[0])
	}
}

// TestDisarmedAllocations holds the zero-overhead contract: failpoints sit
// on the WAL write, proxy and ship paths of every production request, so a
// disarmed one must cost one atomic load and zero allocations — plain, and
// tagged (the tag must not escape while nothing is armed).
func TestDisarmedAllocations(t *testing.T) {
	f := Register("alloc.disarmed")
	if got := testing.AllocsPerRun(1000, func() {
		if f.Eval() != nil {
			t.Fatal("disarmed failpoint fired")
		}
	}); got != 0 {
		t.Errorf("disarmed Eval: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if f.EvalTag("node-a") != nil {
			t.Fatal("disarmed failpoint fired")
		}
	}); got != 0 {
		t.Errorf("disarmed EvalTag: %v allocs/op, want 0", got)
	}
}

// BenchmarkFaultDisarmed times what TestDisarmedAllocations counts: a
// disarmed failpoint on a hot path (~2 ns, one atomic load).
func BenchmarkFaultDisarmed(b *testing.B) {
	f := Register("bench.disarmed")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.Eval() != nil {
			b.Fatal("disarmed failpoint fired")
		}
	}
}

// BenchmarkFaultDisarmedTag is the tagged variant used by proxy/ship
// sites; the tag must not force an allocation while disarmed.
func BenchmarkFaultDisarmedTag(b *testing.B) {
	f := Register("bench.disarmed.tag")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.EvalTag("node-a") != nil {
			b.Fatal("disarmed failpoint fired")
		}
	}
}

// BenchmarkFaultArmedMiss measures an armed failpoint on hits outside the
// window — the steady state after a schedule has played out.
func BenchmarkFaultArmedMiss(b *testing.B) {
	defer DisarmAll()
	f := Register("bench.armedmiss")
	err := Apply(Schedule{Seed: 1, Rules: []Rule{
		{Point: "bench.armedmiss", Action: "error", Count: 1, Window: 1},
	}})
	if err != nil {
		b.Fatal(err)
	}
	f.Eval() // consume the single planned fire
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Eval() != nil {
			b.Fatal("armed failpoint fired past its window")
		}
	}
}
