package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"relm/internal/service"
	"relm/internal/wire"
)

// Moving sessions between nodes. Whether a node leaves on purpose (drain)
// or dies (promotion of its replica), what it leaves behind is one
// service.HandoffReport, and one routine — handOff — places it.

// reassignment records where one handed-over session went, and whether it
// carries a repository warm start (it did before the move, so it does
// after).
type reassignment struct {
	ID          string `json:"id"`
	Node        string `json:"node"`
	WarmStarted bool   `json:"warm_started"`
}

// handOff places a HandoffReport on the survivors: the leaving node's
// models are imported into each of them (idempotent on the backend), then
// every session snapshot is POSTed to /v1/handoff/adopt down the walk of
// its rendezvous candidates — 201 places it, 409 means an earlier attempt
// already did, an unreachable, draining or journal-degraded candidate
// passes it on (a refused adopt leaves nothing on the backend, neither
// record nor tombstone, so a retry there cannot answer 409 for a session it
// never took), any other answer is that session's error. It returns where each session went and, keyed "import <node>" /
// "adopt <id>", what failed; nothing is rolled back, the caller reports
// the remainder.
func (r *Router) handOff(ctx context.Context, survivors []*node, rep service.HandoffReport) ([]reassignment, map[string]string) {
	errs := make(map[string]string)
	if len(rep.Repo) > 0 {
		body, err := json.Marshal(service.RepoExportResponse{Models: rep.Repo})
		if err != nil {
			errs["import"] = "encode: " + err.Error()
		} else {
			for _, s := range survivors {
				ans, err := r.call(ctx, s, 4*r.opts.Timeout, http.MethodPost, "/v1/repository/import", body)
				if err != nil {
					errs["import "+s.name] = err.Error()
				} else if ans.status != http.StatusOK {
					errs["import "+s.name] = ans.refusal()
				}
			}
		}
	}
	reassigned := make([]reassignment, 0, len(rep.Sessions))
	for _, ss := range rep.Sessions {
		body, err := json.Marshal(ss)
		if err != nil {
			errs["adopt "+ss.ID] = "encode: " + err.Error()
			continue
		}
		ans, err := r.walk(ctx, survivors, ss.ID, 4*r.opts.Timeout,
			http.MethodPost, "/v1/handoff/adopt", body, judgePlacement)
		switch {
		case err != nil:
			errs["adopt "+ss.ID] = err.Error()
		case ans.status == http.StatusCreated || ans.status == http.StatusConflict:
			reassigned = append(reassigned, reassignment{ID: ss.ID, Node: ans.node.name, WarmStarted: ss.Warm != nil})
		default:
			errs["adopt "+ss.ID] = fmt.Sprintf("node %s: %s", ans.node.name, ans.refusal())
		}
	}
	return reassigned, errs
}

// handleDrain drains one node and hands its sessions over:
//
//  1. the node is taken out of placement immediately,
//  2. POST /v1/drain force-harvests its sessions into the model repository,
//     closes them, and returns the HandoffReport,
//  3. handOff imports the models into every surviving node and has each
//     non-terminal session adopted — same ID, same history, same next
//     suggestion — by its new rendezvous owner.
//
// Any hand-over failure yields 502 with detail, and the drain is not rolled
// back (the node is already out of service). Re-running the drain cannot
// recover — a second service Drain reports no sessions — so the 502
// carries everything needed to finish by hand: each un-placed session as a
// ready-to-POST /v1/handoff/adopt body (the backend answers 409 if a retry
// already placed it) and the models (re-POST to /v1/repository/import —
// idempotent).
func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("node")
	n := r.nodeByName(name)
	if n == nil {
		wire.WriteJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("unknown node %q", name)})
		return
	}
	n.mu.Lock()
	n.draining = true
	n.mu.Unlock()
	r.logf("router: draining node %s", name)

	ans, err := r.call(req.Context(), n, 4*r.opts.Timeout, http.MethodPost, "/v1/drain", []byte("{}"))
	if err != nil {
		wire.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error": "drain request failed: " + err.Error(), "node": name,
		})
		return
	}
	if ans.status != http.StatusOK {
		wire.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error": "drain " + ans.refusal(), "node": name,
		})
		return
	}
	var drained service.HandoffReport
	if err := json.Unmarshal(ans.body, &drained); err != nil {
		wire.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error": "bad drain body: " + err.Error(), "node": name,
		})
		return
	}

	reassigned, errs := r.handOff(req.Context(), r.eligibleNodes(), drained)
	resp := map[string]any{
		"node":       name,
		"sessions":   len(drained.Sessions),
		"models":     len(drained.Repo),
		"reassigned": reassigned,
	}
	if len(errs) > 0 {
		placed := make(map[string]bool, len(reassigned))
		for _, ra := range reassigned {
			placed[ra.ID] = true
		}
		unassigned := drained.Sessions[:0]
		for _, ss := range drained.Sessions {
			if !placed[ss.ID] {
				unassigned = append(unassigned, ss)
			}
		}
		resp["error"] = "drain hand-off incomplete"
		resp["nodes"] = errs
		resp["unassigned"] = unassigned
		resp["models_detail"] = drained.Repo
		wire.WriteJSON(w, http.StatusBadGateway, resp)
		return
	}
	r.logf("router: drained %s: %d sessions handed over, %d models shared",
		name, len(reassigned), len(drained.Repo))
	wire.WriteJSON(w, http.StatusOK, resp)
}
