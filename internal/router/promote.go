package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"time"

	"relm/internal/replica"
	"relm/internal/service"
)

// Automatic fail-over. When a backend dies without draining (health-check
// death), the router finds which surviving node holds the dead primary's
// replica — the backends ship their WAL to rendezvous-chosen followers —
// and promotes it: the follower fences the replica against further ingest,
// replays it exactly like a crash recovery, and returns the HandoffReport
// of every non-terminal session. handOff then places them (handoff.go), so
// a promoted session — remote or auto — resumes bit-exact up to the last
// chunk the dead node shipped.
//
// Drain is deliberately NOT a trigger: a drained node hands its sessions
// off itself. Promotion is only for nodes that never got the chance.

// PromotionReport describes one fail-over (GET /v1/cluster,
// "last_promotion").
type PromotionReport struct {
	Node       string            `json:"node"`   // the dead primary
	Holder     string            `json:"holder"` // survivor whose replica was promoted
	Sessions   int               `json:"sessions"`
	Reassigned []reassignment    `json:"reassigned"`
	Models     int               `json:"models"`
	Errors     map[string]string `json:"errors,omitempty"`
	At         time.Time         `json:"at"`
}

// maybePromote starts a promotion for a dead node unless one already ran
// or is running. Called from the health loop on every failed check, so a
// failed attempt (e.g. no survivor holds a replica yet) retries at
// health-check cadence.
func (r *Router) maybePromote(n *node) {
	n.mu.Lock()
	if n.draining || n.promoted || n.promoting {
		n.mu.Unlock()
		return
	}
	n.promoting = true
	n.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ok := r.promote(n)
		n.mu.Lock()
		n.promoting = false
		if ok {
			n.promoted = true
		}
		n.mu.Unlock()
	}()
}

// promote runs one fail-over attempt for dead node n. It returns false
// only while nothing irreversible has happened (no replica found, promote
// call failed) — those attempts retry. Once a follower has fenced and
// replayed the replica the promotion is declared done even if parts of the
// hand-off failed; the remainder is in the report for the operator, and a
// rerun could not recover it anyway (the replica now reports Promoted and
// would be skipped).
func (r *Router) promote(n *node) bool {
	if n.eligible() {
		return false // flapped back to healthy; nothing to do
	}
	survivors := r.survivorsFor(n)
	if len(survivors) == 0 {
		r.logf("router: promote %s: no healthy survivor", n.name)
		return false
	}

	holder, holderBytes := r.findHolder(n.name, survivors)
	if holder == nil {
		r.logf("router: promote %s: no survivor holds an unpromoted replica", n.name)
		return false
	}
	r.logf("router: promoting replica of %s on %s (%d bytes)", n.name, holder.name, holderBytes)

	body, _ := json.Marshal(map[string]string{"primary": n.name})
	ctx := context.Background() // runs from the health loop, not a request
	ans, err := r.call(ctx, holder, 4*r.opts.Timeout, http.MethodPost, "/v1/replica/promote", body)
	if err != nil {
		holder.suspect(err, r.opts.FailAfter)
		r.logf("router: promote %s on %s: %v", n.name, holder.name, err)
		return false
	}
	if ans.status != http.StatusOK {
		r.logf("router: promote %s on %s: %s", n.name, holder.name, ans.refusal())
		return false
	}
	var handoff service.HandoffReport
	if err := json.Unmarshal(ans.body, &handoff); err != nil {
		r.logf("router: promote %s on %s: bad hand-off body: %v", n.name, holder.name, err)
		return false
	}

	// Point of no return: the replica is fenced and replayed.
	r.promotions.Add(1)
	reassigned, errs := r.handOff(ctx, survivors, handoff)
	report := &PromotionReport{
		Node:       n.name,
		Holder:     holder.name,
		Sessions:   len(handoff.Sessions),
		Reassigned: reassigned,
		Models:     len(handoff.Repo),
		Errors:     errs,
		At:         time.Now(),
	}
	r.promoMu.Lock()
	r.lastPromo = report
	r.promoMu.Unlock()
	r.logf("router: promoted %s via %s: %d sessions recovered, %d reassigned, %d models, %d errors",
		n.name, holder.name, len(handoff.Sessions), len(reassigned), len(handoff.Repo), len(errs))
	return true
}

// survivorsFor returns the eligible nodes other than the dead one.
func (r *Router) survivorsFor(dead *node) []*node {
	var out []*node
	for _, n := range r.eligibleNodes() {
		if n != dead {
			out = append(out, n)
		}
	}
	return out
}

// findHolder asks every survivor whether it holds a replica of the dead
// primary and returns the one with the most replicated bytes (already
// promoted replicas are skipped — they were consumed by a previous
// fail-over and a revived primary has been shipping nowhere since).
func (r *Router) findHolder(dead string, survivors []*node) (*node, int64) {
	type cand struct {
		n     *node
		bytes int64
	}
	var cands []cand
	target := "/v1/replica/status?" + url.Values{"primary": {dead}}.Encode()
	for _, s := range survivors {
		ans, err := r.call(context.Background(), s, r.opts.Timeout, http.MethodGet, target, nil)
		if err != nil || ans.status != http.StatusOK {
			continue
		}
		var st replica.StatusResponse
		if err := json.Unmarshal(ans.body, &st); err != nil {
			continue
		}
		for _, ps := range st.Primaries {
			if ps.Primary == dead && !ps.Promoted {
				cands = append(cands, cand{n: s, bytes: ps.Bytes})
			}
		}
	}
	if len(cands) == 0 {
		return nil, 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bytes != cands[j].bytes {
			return cands[i].bytes > cands[j].bytes
		}
		return cands[i].n.name < cands[j].n.name
	})
	return cands[0].n, cands[0].bytes
}
