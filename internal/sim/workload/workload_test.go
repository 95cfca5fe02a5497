package workload

import (
	"reflect"
	"strings"
	"testing"
)

func TestAllBenchmarksValidate(t *testing.T) {
	for _, wl := range Benchmarks() {
		if err := wl.Validate(); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
	}
}

func TestBenchmarkNamesMatchTable2(t *testing.T) {
	want := []string{"WordCount", "SortByKey", "K-means", "SVM", "PageRank"}
	got := Benchmarks()
	if len(got) != len(want) {
		t.Fatalf("got %d benchmarks", len(got))
	}
	for i, wl := range got {
		if wl.Name != want[i] {
			t.Errorf("benchmark %d = %s, want %s", i, wl.Name, want[i])
		}
	}
}

func TestPartitionSizesMatchTable2(t *testing.T) {
	want := map[string]float64{
		"WordCount": 128, "SortByKey": 512, "K-means": 128, "SVM": 32, "PageRank": 128,
	}
	for _, wl := range Benchmarks() {
		if wl.PartitionMB != want[wl.Name] {
			t.Errorf("%s partition = %v, want %v", wl.Name, wl.PartitionMB, want[wl.Name])
		}
	}
}

func TestCacheUsage(t *testing.T) {
	for _, wl := range Benchmarks() {
		switch wl.Name {
		case "WordCount", "SortByKey":
			if wl.UsesCache || wl.CacheNeedMB != 0 {
				t.Errorf("%s must not cache", wl.Name)
			}
		default:
			if !wl.UsesCache || wl.CacheNeedMB <= 0 {
				t.Errorf("%s must cache", wl.Name)
			}
		}
	}
}

func TestWordCountShape(t *testing.T) {
	wc := WordCount()
	if wc.Stages[0].Tasks != 400 {
		t.Fatalf("WordCount map tasks = %d, want 400 (50GB/128MB)", wc.Stages[0].Tasks)
	}
	if wc.Stages[0].ShuffleWriteMBPerTask >= wc.Stages[0].InputMBPerTask {
		t.Fatal("WordCount shuffle must be much smaller than its input (aggregation)")
	}
}

func TestSortByKeyShape(t *testing.T) {
	s := SortByKey()
	if s.Stages[0].Tasks != 60 {
		t.Fatalf("SortByKey map tasks = %d, want 60 (30GB/512MB)", s.Stages[0].Tasks)
	}
	reduce := s.Stages[1]
	if reduce.ShuffleNeedMBPerTask <= reduce.ShuffleReadMBPerTask {
		t.Fatal("sort working set must exceed the serialized shuffle bytes")
	}
}

func TestIterativeAppsRepeat(t *testing.T) {
	for _, wl := range []Spec{KMeans(), SVM(), PageRank()} {
		found := false
		for _, st := range wl.Stages {
			if st.Repeat > 1 && st.CacheReadMBPerTask > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s must iterate over cached data", wl.Name)
		}
	}
}

func TestPageRankSignature(t *testing.T) {
	pr := PageRank()
	coalesce := pr.Stages[0]
	if coalesce.NetworkMBPerTask < 500 {
		t.Fatal("PageRank coalesce must be network-fetch heavy (native buffers)")
	}
	if coalesce.UnmanagedMBPerTask < 500 {
		t.Fatal("PageRank tasks need a large unmanaged working set (Table 6: Mu≈770MB)")
	}
	if pr.CacheNeedMB < 30000 {
		t.Fatal("PageRank's graph must far exceed the cluster cache (H≈0.3)")
	}
	if pr.RecomputeNetMBPerMB <= 0 {
		t.Fatal("PageRank misses must refetch over the network")
	}
}

func TestTotalTasks(t *testing.T) {
	wl := Spec{Name: "x", Stages: []StageSpec{
		{Tasks: 10, CPUCoresPerTask: 1},
		{Tasks: 5, Repeat: 3, CPUCoresPerTask: 1},
	}}
	if wl.TotalTasks() != 25 {
		t.Fatalf("TotalTasks = %d", wl.TotalTasks())
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "x"},
		{Name: "x", Stages: []StageSpec{{Tasks: 0, CPUCoresPerTask: 1}}},
		{Name: "x", Stages: []StageSpec{{Tasks: 1, CPUCoresPerTask: 0}}},
	}
	for i, wl := range bad {
		if wl.Validate() == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"WordCount", "PageRank", "TPC-H Q1", "TPC-H Q22"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) not found", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name should not resolve")
	}
}

// TestByNameReturnsACopy: ByName's table is built once, and a caller that
// changes a returned spec's stages changes nothing a later lookup returns.
func TestByNameReturnsACopy(t *testing.T) {
	w, _ := ByName("K-means")
	w.Stages[0].Tasks = -1
	w.Stages[0].Name = "changed"
	again, ok := ByName("K-means")
	if !ok || !reflect.DeepEqual(again, KMeans()) {
		t.Errorf("ByName after a caller changed a returned stage = %+v, want %+v", again, KMeans())
	}
}

func TestTPCHSuite(t *testing.T) {
	qs := TPCH()
	if len(qs) != 22 {
		t.Fatalf("TPC-H has %d queries", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
		if !strings.HasPrefix(q.Name, "TPC-H Q") {
			t.Errorf("query name %q", q.Name)
		}
		if q.UsesCache {
			t.Errorf("%s: TPC-H queries are shuffle-dominant", q.Name)
		}
	}
	// Q1/Q6 are scan-heavy single-stage-ish; Q9/Q21 are deep join pipelines.
	if len(TPCHQuery(6).Stages) >= len(TPCHQuery(9).Stages) {
		t.Error("Q9 must have more join stages than Q6")
	}
}

func TestTPCHQueryPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TPCHQuery(0) should panic")
		}
	}()
	TPCHQuery(0)
}

func TestScale(t *testing.T) {
	base := SVM()
	doubled := Scale(base, 2)
	if doubled.CacheNeedMB != 2*base.CacheNeedMB {
		t.Fatal("cache need must scale")
	}
	for i := range base.Stages {
		if doubled.Stages[i].Tasks != 2*base.Stages[i].Tasks {
			t.Fatalf("stage %d tasks = %d", i, doubled.Stages[i].Tasks)
		}
		if doubled.Stages[i].UnmanagedMBPerTask != base.Stages[i].UnmanagedMBPerTask {
			t.Fatal("per-task footprints must stay fixed")
		}
	}
	if doubled.Name == base.Name {
		t.Fatal("scaled workload must be renamed")
	}
	// The base is untouched (deep copy of stages).
	if base.Stages[0].Tasks != SVM().Stages[0].Tasks {
		t.Fatal("Scale mutated its input")
	}
	// Identity and defensive cases.
	if same := Scale(base, 1); same.Name != base.Name {
		t.Fatal("factor 1 must not rename")
	}
	if bad := Scale(base, -3); bad.Stages[0].Tasks != base.Stages[0].Tasks {
		t.Fatal("non-positive factor must behave like 1")
	}
}

func TestBytesProcessed(t *testing.T) {
	s := StageSpec{InputMBPerTask: 10, ShuffleReadMBPerTask: 20, CacheReadMBPerTask: 30}
	if s.BytesProcessed() != 60 {
		t.Fatalf("BytesProcessed = %v", s.BytesProcessed())
	}
}
