package router

import (
	"net/http"

	"relm/internal/obs"
)

// Router-local observability endpoints. The router's Prometheus scrape is
// deliberately local — its own counters, per-backend gauges, and its
// pick/proxy/fanout stage latencies — and never fans out to the backends:
// a monitoring system scrapes each relm-serve's /metrics directly, and a
// scrape must stay cheap and dependency-free. Cluster-merged stage
// digests live on /v1/metrics instead.

// handleProm renders GET /metrics in the Prometheus text format.
func (r *Router) handleProm(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.Counter("relm_router_promotions_total", "Replica promotions orchestrated.", float64(r.promotions.Load()))
	var healthy, draining int
	for _, n := range r.nodes {
		st := n.snapshot()
		if st.Healthy {
			healthy++
		}
		if st.Draining {
			draining++
		}
		p.Gauge("relm_router_backend_healthy", "Backend health (1 healthy, 0 not).", b2f(st.Healthy), "backend", st.Name)
		p.Gauge("relm_router_backend_draining", "Backend draining (1 yes, 0 no).", b2f(st.Draining), "backend", st.Name)
		p.Gauge("relm_router_backend_sessions", "Sessions reported by the backend.", float64(st.Sessions), "backend", st.Name)
		p.Gauge("relm_router_backend_suspect", "Backend held out after a failed call until a data-path check answers (1 yes, 0 no).", b2f(st.Suspect), "backend", st.Name)
		p.Counter("relm_router_backend_retries_total", "Requests retried away from this backend.", float64(st.Retries), "backend", st.Name)
	}
	p.Gauge("relm_router_backends", "Configured backends.", float64(len(r.nodes)))
	p.Gauge("relm_router_backends_healthy", "Healthy backends.", float64(healthy))
	p.Gauge("relm_router_backends_draining", "Draining backends.", float64(draining))
	p.StageHistograms("relm_router_stage_latency_seconds", "Router stage latency distribution.", r.opts.Obs.Snapshots())
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
