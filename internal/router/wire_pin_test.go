package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"relm/internal/obs"
)

// get reads one router endpoint raw, with a fixed trace ID so the trace
// ring's content is the test's to name.
func (tc *testCluster) get(t *testing.T, path, traceID string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, tc.front.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricsBackend is a fake backend whose /v1/metrics is body.
func metricsBackend(t *testing.T, name, body string) Backend {
	return fakeBackend(t, name, func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	})
}

// histBody is a /v1/metrics body reporting one stage histogram.
func histBody(t *testing.T, stage string, h obs.HistJSON) string {
	t.Helper()
	buf, err := json.Marshal(map[string]any{"stage_hist": map[string]obs.HistJSON{stage: h}})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// The merged GET /v1/metrics is what dashboards and the chaos checker read.
// This body was captured at the last commit where the router decoded
// stage_hist by hand and wrote its replies with a writeJSON of its own;
// decoding with obs.HistJSON.Snapshot and replying through wire.WriteJSON
// must not have moved a byte of it.
const mergedMetricsGolden = `{"nodes":2,"per_node":{"a":{"node":"a","sessions":2,"observations":10,"persistence":true,"wal_degraded":true,"sessions_by_state":{"active":1,"done":1},"stage_hist":{"service.observe":{"count":3,"sum_ns":3000,"buckets":[0,0,0,0,0,0,0,0,0,0,3]}}},"b":{"node":"b","sessions":1,"observations":5,"persistence":true,"sessions_by_state":{"active":1},"stage_hist":{"service.observe":{"count":1,"sum_ns":4000000,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]},"wal.append":{"count":2,"sum_ns":64,"buckets":[0,0,0,0,0,0,2]}}}},"router":{"promotions_total":0,"retries_total":0,"suspects":0},"sessions_by_state":{"active":2,"done":1},"stages":{"service.observe":{"count":4,"mean_us":1000.75,"p50_us":0.8526666666666667,"p90_us":3355.4426000000003,"p99_us":4110.41696,"p999_us":4185.914396},"wal.append":{"count":2,"mean_us":0.032,"p50_us":0.0475,"p90_us":0.05990000000000001,"p99_us":0.06269,"p999_us":0.062969}},"totals":{"observations":15,"sessions":3}}` + "\n"

func TestMergedMetricsWireBytes(t *testing.T) {
	a := metricsBackend(t, "a", `{"node":"a","sessions":2,"observations":10,"persistence":true,"wal_degraded":true,`+
		`"sessions_by_state":{"active":1,"done":1},`+
		`"stage_hist":{"service.observe":{"count":3,"sum_ns":3000,"buckets":[0,0,0,0,0,0,0,0,0,0,3]}}}`)
	b := metricsBackend(t, "b", `{"node":"b","sessions":1,"observations":5,"persistence":true,`+
		`"sessions_by_state":{"active":1},`+
		`"stage_hist":{"service.observe":{"count":1,"sum_ns":4000000,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]},`+
		`"wal.append":{"count":2,"sum_ns":64,"buckets":[0,0,0,0,0,0,2]}}}`)
	tc := newFakeCluster(t, a, b)
	code, body := tc.get(t, "/v1/metrics", "t-pin")
	if code != http.StatusOK || body != mergedMetricsGolden {
		t.Errorf("merged /v1/metrics moved: status %d\n got %s\nwant %s", code, body, mergedMetricsGolden)
	}
}

// TestMergedMetricsDecodesLikeObs: however many buckets a backend reports —
// fewer than this build's, as many, or more (a newer build) — the router's
// merged digest is the one obs computes from the same wire histograms.
// Buckets past NumBuckets fold into the last one; they were once dropped
// while count still included them, which put every percentile that landed
// among them at the bottom of the +Inf bucket.
func TestMergedMetricsDecodesLikeObs(t *testing.T) {
	for _, n := range []int{3, obs.NumBuckets, obs.NumBuckets + 2} {
		t.Run(fmt.Sprintf("%d buckets", n), func(t *testing.T) {
			sent := obs.HistJSON{Count: 10, SumNs: 1 << 20, Buckets: make([]uint64, n)}
			sent.Buckets[1] = 1
			sent.Buckets[n-1] = 9
			other := obs.HistJSON{Count: 2, SumNs: 8, Buckets: []uint64{0, 0, 2}}
			tc := newFakeCluster(t,
				metricsBackend(t, "a", histBody(t, "s", sent)),
				metricsBackend(t, "b", histBody(t, "s", other)))
			code, body := tc.get(t, "/v1/metrics", "t-pin")
			var got struct {
				Stages map[string]obs.Summary `json:"stages"`
			}
			if err := json.Unmarshal([]byte(body), &got); code != http.StatusOK || err != nil {
				t.Fatalf("merged /v1/metrics: status %d, %v: %s", code, err, body)
			}
			if want := obs.MergeHists(sent, other).Summarize(); got.Stages["s"] != want {
				t.Errorf("merged digest of %d+3 buckets:\n got %+v\nwant %+v", n, got.Stages["s"], want)
			}
		})
	}
}

// traceClock matches the two fields of a trace record that are read off the
// clock.
var traceClock = regexp.MustCompile(`"start":"[^"]*","total_us":[0-9.e+-]+`)

func scrubTraces(body string) string {
	return traceClock.ReplaceAllString(body, `"start":"S","total_us":0`)
}

// GET /v1/traces on the router, captured while the router had a handler of
// its own for it (a copy of the service's but for the label): one handler
// beside the ring must answer the same bytes.
func TestRouterTracesWireBytes(t *testing.T) {
	tc := newFakeCluster(t, fakeBackend(t, "a", http.NotFound))
	tc.get(t, "/v1/cluster", "t-one")
	tc.get(t, "/healthz", "t-two")
	for _, c := range []struct {
		path string
		code int
		want string
	}{
		{"/v1/traces?id=t-one", 200, `{"node":"router","traces":[{"id":"t-one","node":"router","method":"GET","path":"/v1/cluster","start":"S","total_us":0,"spans":[]}]}` + "\n"},
		{"/v1/traces?id=t-none", 404, `{"error":"trace not found: t-none"}` + "\n"},
		// Newest first; the lookups above are traced requests too.
		{"/v1/traces?limit=3", 200, `{"node":"router","traces":[` +
			`{"id":"t-pin","node":"router","method":"GET","path":"/v1/traces","start":"S","total_us":0,"spans":[]},` +
			`{"id":"t-pin","node":"router","method":"GET","path":"/v1/traces","start":"S","total_us":0,"spans":[]},` +
			`{"id":"t-two","node":"router","method":"GET","path":"/healthz","start":"S","total_us":0,"spans":[]}]}` + "\n"},
	} {
		code, body := tc.get(t, c.path, "t-pin")
		if got := scrubTraces(body); code != c.code || got != c.want {
			t.Errorf("GET %s moved: status %d\n got %s\nwant %s", c.path, code, strings.TrimSpace(got), c.want)
		}
	}
	if code, body := tc.get(t, "/v1/traces", "t-pin"); code != 200 || strings.Count(body, `"id":`) != 5 {
		t.Errorf("GET /v1/traces without a limit: status %d, want all 5 traced requests: %s", code, body)
	}
}
