package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The repository endpoints are an interface too: the router merges
// GET /v1/repository key by key, a drain re-POSTs an export as an import,
// and operators move models between clusters with curl. These bodies were
// captured from the last commit that declared the repository twice for the
// wire (a report type copied field by field into a response type, one
// export type beside an identical import type); rendering each endpoint
// from the one type must not have moved a byte.
const (
	// repoImportBody is what an operator POSTs to /v1/repository/import.
	repoImportBody = `{"models":[{"Workload":"K-means","ClusterName":"A",` +
		`"Fingerprint":{"N":1,"MhMB":4404,"CPUAvg":0.62,"DiskAvg":0.08,"MiMB":115,"McMB":2300,"MsMB":12,"MuMB":310,"P":2,"H":0.71,"S":0.02,"HadFullGC":true,"CoresPerNode":8},` +
		`"DefaultSec":120,"Points":[` +
		`{"X":[0.125,1,0.65,0.125],"Cfg":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":0.6,"ShuffleCapacity":0.1,"NewRatio":2,"SurvivorRatio":8},"Y":120},` +
		`{"X":[0.375,0.5,0.4,0.25],"Cfg":{"ContainersPerNode":2,"TaskConcurrency":2,"CacheCapacity":0.39,"ShuffleCapacity":0.1,"NewRatio":3,"SurvivorRatio":8},"Y":96.5}],` +
		`"Hits":2,"AddedAt":"2025-12-31T23:00:00Z","LastUsed":"2026-01-01T08:30:00Z"}]}`
	// repoWarmCreate is a remote BO create whose fingerprint matches that
	// entry, so the inspection view shows a live hit counter and stamp.
	repoWarmCreate = `{"backend":"bo","workload":"K-means","seed":3,"warm_start":true,"default_runtime_sec":150,` +
		`"stats":{"N":1,"MhMB":4404,"CPUAvg":0.6,"DiskAvg":0.09,"MiMB":115,"McMB":2300,"MsMB":12,"MuMB":310,"P":2,"H":0.7,"S":0.02,"HadFullGC":true,"CoresPerNode":8}}`

	// GET /v1/repository and GET /v1/repository/export after that create
	// (the match is the entry's third hit and refreshes its LRU stamp).
	repoInspectGolden = `{"entries":1,"capacity":8,"hits":1,"evictions":0,"models":[{"workload":"K-means","cluster":"A","fingerprint":[0.62,0.08,0.02611262488646685,0.522252497729337,0.0027247956403269754,0.0703905540417802,0.71,0.02],"default_sec":120,"points":2,"hits":3,"added_at":"2025-12-31T23:00:00Z","last_used":"2026-01-02T03:04:05Z"}]}` + "\n"
	repoExportGolden  = `{"models":[{"Workload":"K-means","ClusterName":"A","Fingerprint":{"N":1,"MhMB":4404,"CPUAvg":0.62,"DiskAvg":0.08,"MiMB":115,"McMB":2300,"MsMB":12,"MuMB":310,"P":2,"H":0.71,"S":0.02,"HadFullGC":true,"CoresPerNode":8},"DefaultSec":120,"Points":[{"X":[0.125,1,0.65,0.125],"Cfg":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":0.6,"ShuffleCapacity":0.1,"NewRatio":2,"SurvivorRatio":8},"Y":120},{"X":[0.375,0.5,0.4,0.25],"Cfg":{"ContainersPerNode":2,"TaskConcurrency":2,"CacheCapacity":0.39,"ShuffleCapacity":0.1,"NewRatio":3,"SurvivorRatio":8},"Y":96.5}],"Hits":3,"AddedAt":"2025-12-31T23:00:00Z","LastUsed":"2026-01-02T03:04:05Z"}]}` + "\n"
)

func TestRepositoryWireBytes(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	open := func() string {
		m := newTestManager(t, Options{Workers: 1, RepoCapacity: 8, Now: func() time.Time { return now }})
		srv := httptest.NewServer(NewHandler(m))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	do := func(method, url, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s = %d: %s", method, url, resp.StatusCode, out)
		}
		return string(out)
	}
	a, b := open(), open()
	if got := do("POST", a+"/v1/repository/import", repoImportBody); got != `{"imported":1}`+"\n" {
		t.Fatalf("import answered %q", got)
	}
	if got := do("POST", a+"/v1/sessions", repoWarmCreate); !strings.Contains(got, `"warm_started":true`) {
		t.Fatalf("create did not warm-start: %s", got)
	}
	if got := do("GET", a+"/v1/repository", ""); got != repoInspectGolden {
		t.Errorf("GET /v1/repository moved:\n got %s\nwant %s", got, repoInspectGolden)
	}
	export := do("GET", a+"/v1/repository/export", "")
	if export != repoExportGolden {
		t.Errorf("GET /v1/repository/export moved:\n got %s\nwant %s", export, repoExportGolden)
	}
	// Round trip: one node's export is another's import, and comes back out
	// of it unchanged; a second import of the same body adds nothing.
	if got := do("POST", b+"/v1/repository/import", export); got != `{"imported":1}`+"\n" {
		t.Fatalf("import of an export answered %q", got)
	}
	if got := do("POST", b+"/v1/repository/import", export); got != `{"imported":0}`+"\n" {
		t.Fatalf("second import answered %q", got)
	}
	if got := do("GET", b+"/v1/repository/export", ""); got != export {
		t.Errorf("export → import → export is not the identity:\n got %s\nwant %s", got, export)
	}
}
