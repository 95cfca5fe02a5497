package router

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"relm/internal/obs"
	"relm/internal/service"
	"relm/internal/wire"
)

// This file holds the cluster-wide read endpoints — fan out to every
// eligible node, merge. Merges are all-or-nothing: a backend failing
// mid-fan-out yields 502 with per-node detail, never a silent partial merge
// that under-reports the cluster.
// The one exception is /v1/metrics: monitoring must keep seeing the
// reachable majority while a node is down, so it merges what answered and
// flags the rest (partial: true) instead of failing the whole scrape.

// nodeResult is one backend's answer to a fan-out request.
type nodeResult struct {
	reply
	err error
}

// fanout issues one request to every eligible node concurrently. It rides
// the circuit breakers: a timed-out backend counts toward tripping its
// breaker, and a node whose breaker claims no capacity mid-flight is
// dropped from the merge — the same exclusion the placement filter applies
// before the fan-out, not a silent partial failure.
func (r *Router) fanout(req *http.Request, method, path string, body []byte) []nodeResult {
	start := time.Now()
	defer func() { r.histFanout.Record(time.Since(start)) }()
	nodes := r.eligibleNodes()
	results := make([]nodeResult, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := r.call(req.Context(), n, r.opts.Timeout, method, path, body)
			results[i] = nodeResult{rep, err}
		}()
	}
	wg.Wait()
	kept := results[:0]
	for _, res := range results {
		if !errors.Is(res.err, errBreakerOpen) {
			kept = append(kept, res)
		}
	}
	return kept
}

// failure words what went wrong with one node's fan-out answer ("" when it
// is a 200), marking the node suspect on a transport error.
func (r *Router) failure(res nodeResult) string {
	switch {
	case res.err != nil:
		res.node.suspect(res.err, r.opts.FailAfter)
		return res.err.Error()
	case res.status != http.StatusOK:
		return res.refusal()
	}
	return ""
}

// mergeable guards an all-or-nothing merge: it answers 503 when no node was
// there to ask and 502 with per-node detail when any failed, and reports
// whether the results are all 200s for the caller to merge.
func (r *Router) mergeable(w http.ResponseWriter, results []nodeResult) bool {
	if len(results) == 0 {
		writeNoBackend(w)
		return false
	}
	errs := make(map[string]string)
	for _, res := range results {
		if detail := r.failure(res); detail != "" {
			errs[res.node.name] = detail
		}
	}
	if len(errs) > 0 {
		writePartialFailure(w, errs)
		return false
	}
	return true
}

// writePartialFailure answers a failed merge: 502 with per-node detail.
func writePartialFailure(w http.ResponseWriter, errs map[string]string) {
	wire.WriteJSON(w, http.StatusBadGateway, map[string]any{
		"error": "partial backend failure",
		"nodes": errs,
	})
}

// handleList merges every node's session listing, each entry stamped with
// its serving node, ordered by (node, id) for determinism.
func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req, http.MethodGet, "/v1/sessions", nil)
	if !r.mergeable(w, results) {
		return
	}
	merged := make([]map[string]any, 0, 16)
	for _, res := range results {
		var list []map[string]any
		if err := json.Unmarshal(res.body, &list); err != nil {
			writePartialFailure(w, map[string]string{res.node.name: "bad listing body: " + err.Error()})
			return
		}
		for _, st := range list {
			st["node"] = res.node.name
			merged = append(merged, st)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		ni, _ := merged[i]["node"].(string)
		nj, _ := merged[j]["node"].(string)
		if ni != nj {
			return ni < nj
		}
		ii, _ := merged[i]["id"].(string)
		ij, _ := merged[j]["id"].(string)
		return ii < ij
	})
	wire.WriteJSON(w, http.StatusOK, merged)
}

// handleMetrics merges every node's /v1/metrics: numeric counters summed
// into totals, per-state session counts summed, per-stage histograms
// merged bucket-wise into cluster-exact latency digests, and each node's
// raw snapshot kept under per_node.
//
// Unlike the other fan-outs this merge is partial, not all-or-nothing: a
// node that errored, answered non-200, or was skipped because its breaker
// is open lands in the failed map and flips partial to true, while the
// nodes that answered still merge — a single sick backend must not blind
// monitoring to the rest of the cluster. 502 only when nothing answered.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req, http.MethodGet, "/v1/metrics", nil)
	totals := make(map[string]float64)
	byState := make(map[string]float64)
	perNode := make(map[string]json.RawMessage, len(results))
	stageSnaps := make(map[string]obs.Snapshot)
	failed := make(map[string]string)
	merged := 0
	for _, res := range results {
		if detail := r.failure(res); detail != "" {
			failed[res.node.name] = detail
			continue
		}
		var mt map[string]any
		if err := json.Unmarshal(res.body, &mt); err != nil {
			failed[res.node.name] = "bad metrics body: " + err.Error()
			continue
		}
		for k, v := range mt {
			switch val := v.(type) {
			case float64:
				totals[k] += val
			case map[string]any:
				if k == "sessions_by_state" {
					for state, c := range val {
						if f, ok := c.(float64); ok {
							byState[state] += f
						}
					}
				}
			}
		}
		// Stage histograms merge bucket-wise — exact, unlike merging the
		// per-node percentile digests would be.
		var sh struct {
			StageHist map[string]service.StageHistJSON `json:"stage_hist"`
		}
		if err := json.Unmarshal(res.body, &sh); err == nil {
			for stage, h := range sh.StageHist {
				cur := stageSnaps[stage]
				cur.Merge(h.Snapshot())
				stageSnaps[stage] = cur
			}
		}
		perNode[res.node.name] = json.RawMessage(res.body)
		merged++
	}
	// Nodes the placement filter excluded before the fan-out never appear
	// in results at all; a healthy, non-draining node missing from the
	// merge can only mean its breaker is open.
	for _, n := range r.nodes {
		if _, ok := perNode[n.name]; ok {
			continue
		}
		if _, ok := failed[n.name]; ok {
			continue
		}
		if n.eligible() {
			failed[n.name] = "breaker open"
		}
	}
	if merged == 0 {
		if len(failed) == 0 {
			writeNoBackend(w)
			return
		}
		writePartialFailure(w, failed)
		return
	}
	stages := make(map[string]obs.Summary, len(stageSnaps))
	for stage, snap := range stageSnaps {
		stages[stage] = snap.Summarize()
	}
	var opens, retries uint64
	var open, halfOpen int
	for _, n := range r.nodes {
		n.mu.Lock()
		opens += n.brOpens
		retries += n.retries
		switch n.brState {
		case brOpen:
			open++
		case brHalfOpen:
			halfOpen++
		}
		n.mu.Unlock()
	}
	resp := map[string]any{
		"nodes":             merged,
		"totals":            totals,
		"sessions_by_state": byState,
		"per_node":          perNode,
		"router": map[string]any{
			"promotions_total":  r.promotions.Load(),
			"breaker_opens":     opens,
			"breakers_open":     open,
			"breakers_halfopen": halfOpen,
			"retries_total":     retries,
		},
	}
	if len(stages) > 0 {
		resp["stages"] = stages
	}
	if len(failed) > 0 {
		resp["partial"] = true
		resp["failed"] = failed
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// handleRepository merges the repository inspection views: lifecycle
// counters summed, model lists concatenated with their node stamped on.
func (r *Router) handleRepository(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req, http.MethodGet, "/v1/repository", nil)
	if !r.mergeable(w, results) {
		return
	}
	var entries, hits, evictions float64
	models := make([]map[string]any, 0, 16)
	for _, res := range results {
		var rep struct {
			Entries   float64          `json:"entries"`
			Hits      float64          `json:"hits"`
			Evictions float64          `json:"evictions"`
			Models    []map[string]any `json:"models"`
		}
		if err := json.Unmarshal(res.body, &rep); err != nil {
			writePartialFailure(w, map[string]string{res.node.name: "bad repository body: " + err.Error()})
			return
		}
		entries += rep.Entries
		hits += rep.Hits
		evictions += rep.Evictions
		for _, mdl := range rep.Models {
			mdl["node"] = res.node.name
			models = append(models, mdl)
		}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"nodes":     len(results),
		"entries":   entries,
		"hits":      hits,
		"evictions": evictions,
		"models":    models,
	})
}

// handleRepoExport concatenates every node's full repository export.
func (r *Router) handleRepoExport(w http.ResponseWriter, req *http.Request) {
	results := r.fanout(req, http.MethodGet, "/v1/repository/export", nil)
	if !r.mergeable(w, results) {
		return
	}
	merged := make([]json.RawMessage, 0, 16)
	for _, res := range results {
		var exp struct {
			Models []json.RawMessage `json:"models"`
		}
		if err := json.Unmarshal(res.body, &exp); err != nil {
			writePartialFailure(w, map[string]string{res.node.name: "bad export body: " + err.Error()})
			return
		}
		merged = append(merged, exp.Models...)
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"models": merged})
}

// handleRepoImport broadcasts an import to every eligible node (imports are
// idempotent on the backend, so replaying a partially-failed broadcast is
// safe).
func (r *Router) handleRepoImport(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req, 64<<20)
	if !ok {
		return
	}
	results := r.fanout(req, http.MethodPost, "/v1/repository/import", body)
	if !r.mergeable(w, results) {
		return
	}
	imported := make(map[string]int, len(results))
	for _, res := range results {
		var imp service.RepoImportResponse
		if err := json.Unmarshal(res.body, &imp); err != nil {
			writePartialFailure(w, map[string]string{res.node.name: "bad import body: " + err.Error()})
			return
		}
		imported[res.node.name] = imp.Imported
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"imported": imported})
}
