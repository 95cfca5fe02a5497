package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"relm/internal/obs"
	"relm/internal/service"
)

// TestTracePropagation drives a session lifecycle through the router and
// follows one trace ID across the hops: the router's response header, the
// router's own trace ring (with its proxy span), and the backend's ring
// (with the service stage span) must all agree on the ID the router
// minted.
func TestTracePropagation(t *testing.T) {
	tc := newTestCluster(t, "a", "b")

	var created service.StatusResponse
	code, hdr := tc.do(t, http.MethodPost, "/v1/sessions",
		map[string]any{"backend": "bo", "workload": "PageRank", "seed": 7}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	traceID := hdr.Get(obs.TraceHeader)
	if !strings.HasPrefix(traceID, "t-") {
		t.Fatalf("router response carries no trace ID: %q", traceID)
	}

	// The router's ring holds the trace with the proxy hop timed.
	var rt service.TracesResponse
	if code, _ := tc.do(t, http.MethodGet, "/v1/traces?id="+traceID, nil, &rt); code != http.StatusOK {
		t.Fatalf("router traces: status %d", code)
	}
	if len(rt.Traces) != 1 || rt.Traces[0].ID != traceID {
		t.Fatalf("router trace lookup: %+v", rt)
	}
	foundProxy := false
	for _, sp := range rt.Traces[0].Spans {
		if sp.Name == "proxy "+created.Node {
			foundProxy = true
		}
	}
	if !foundProxy {
		t.Fatalf("router trace lacks the proxy hop span: %+v", rt.Traces[0].Spans)
	}

	// The backend adopted the same ID and recorded its handler stage.
	resp, err := http.Get(tc.servers[created.Node].URL + "/v1/traces?id=" + traceID)
	if err != nil {
		t.Fatalf("backend traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backend traces: status %d — the trace ID did not survive the proxy hop", resp.StatusCode)
	}
	var bt service.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&bt); err != nil {
		t.Fatalf("decode backend traces: %v", err)
	}
	if len(bt.Traces) != 1 || bt.Traces[0].ID != traceID {
		t.Fatalf("backend trace lookup: %+v", bt)
	}
	foundStage := false
	for _, sp := range bt.Traces[0].Spans {
		if sp.Name == "service.create" {
			foundStage = true
		}
	}
	if !foundStage {
		t.Fatalf("backend trace lacks the service.create span: %+v", bt.Traces[0].Spans)
	}

	// A client-supplied trace ID is adopted, not replaced.
	req, err := http.NewRequest(http.MethodGet, tc.front.URL+"/v1/sessions/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "t-cafecafecafecafecafecafe")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("status through router: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(obs.TraceHeader); got != "t-cafecafecafecafecafecafe" {
		t.Fatalf("router replaced the upstream trace ID: %q", got)
	}
}

// TestDrainTraceShowsHops: the control plane is as visible as the data
// path. The router's trace of a drain carries a proxy span for the
// /v1/drain call on the leaving node and one for each session adopted by
// the successor.
func TestDrainTraceShowsHops(t *testing.T) {
	tc := newTestCluster(t, "a", "b")
	owned := 0
	for i := 0; owned < 3; i++ {
		id := fmt.Sprintf("traced-%d", i)
		if tc.router.pick(id).name != "a" {
			continue
		}
		if code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
			map[string]any{"id": id, "backend": "bo", "workload": "PageRank"}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, code)
		}
		owned++
	}

	var drained struct {
		Reassigned []reassignment `json:"reassigned"`
	}
	code, hdr := tc.do(t, http.MethodPost, "/v1/cluster/drain/a", nil, &drained)
	if code != http.StatusOK || len(drained.Reassigned) != owned {
		t.Fatalf("drain: status %d, reassigned %+v, want %d sessions", code, drained.Reassigned, owned)
	}
	var rt service.TracesResponse
	if code, _ := tc.do(t, http.MethodGet, "/v1/traces?id="+hdr.Get(obs.TraceHeader), nil, &rt); code != http.StatusOK || len(rt.Traces) != 1 {
		t.Fatalf("router trace of the drain: status %d, %+v", code, rt)
	}
	hops := map[string]int{}
	for _, sp := range rt.Traces[0].Spans {
		hops[sp.Name]++
	}
	if hops["proxy a"] != 1 || hops["proxy b"] != owned {
		t.Fatalf("drain trace hops %v, want 1 × proxy a (drain) and %d × proxy b (adopts)", hops, owned)
	}
}

// TestRouterPromEndpoint asserts GET /metrics on the router emits
// parseable Prometheus text covering the backend gauges and the router's
// own stage latencies.
func TestRouterPromEndpoint(t *testing.T) {
	tc := newTestCluster(t, "a", "b")

	// Exercise the data path so the stage histograms have samples.
	var created service.StatusResponse
	if code, _ := tc.do(t, http.MethodPost, "/v1/sessions",
		map[string]any{"backend": "bo", "workload": "PageRank", "seed": 1}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	resp, err := http.Get(tc.front.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	want := map[string]bool{
		"relm_router_backends":                    false,
		"relm_router_backends_healthy":            false,
		"relm_router_backend_healthy":             false,
		"relm_router_stage_latency_seconds_count": false,
		"relm_router_promotions_total":            false,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable sample line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("metrics output missing family %s", name)
		}
	}
}
