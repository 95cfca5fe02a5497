package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"relm/internal/conf"
	"relm/internal/obs"
	"relm/internal/service"
)

// maxRounds stops a session whose stopping rule never fires; the longest
// natural session (BO's full budget) is 29 observations.
const maxRounds = 64

func fromConfigJSON(cj service.ConfigJSON) conf.Config {
	return conf.Config{
		ContainersPerNode: cj.ContainersPerNode,
		TaskConcurrency:   cj.TaskConcurrency,
		CacheCapacity:     cj.CacheCapacity,
		ShuffleCapacity:   cj.ShuffleCapacity,
		NewRatio:          cj.NewRatio,
		SurvivorRatio:     cj.SurvivorRatio,
	}
}

// httpClient is one closed-loop tuning client: one connection, one request
// in flight, the next sent only after the reply to the last. It is the
// benchmark's own client; every request latency is kept as a raw sample.
type httpClient struct {
	base  string
	hc    *http.Client
	tr    *tracer
	think thinker
	epoch time.Time

	ops    int
	failed int
	errs   []string
	recs   []sessionRec
}

func newHTTPClient(base string, tr *tracer, epoch time.Time) *httpClient {
	return &httpClient{
		base:  base,
		tr:    tr,
		epoch: epoch,
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

func (c *httpClient) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// call issues one request and returns its latency in µs as the client sees
// it: encode, round trip through the router, read and decode the reply.
// A transport error, an unexpected status or an undecodable body is a
// failed operation and yields no latency.
func (c *httpClient) call(session, op string, n int, method, path string, in, out any, want int) (float64, bool) {
	c.ops++
	id := requestID(session, op, n)
	start := time.Now()
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			c.fail("%s: encode: %v", id, err)
			return 0, false
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		c.fail("%s: %v", id, err)
		return 0, false
	}
	req.Header.Set(obs.TraceHeader, id)
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail("%s: %v", id, err)
		return 0, false
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.fail("%s: read: %v", id, err)
		return 0, false
	}
	if resp.StatusCode != want {
		c.fail("%s: status %d (want %d): %s", id, resp.StatusCode, want, bytes.TrimSpace(buf))
		return 0, false
	}
	if out != nil {
		if err := json.Unmarshal(buf, out); err != nil {
			c.fail("%s: decode: %v", id, err)
			return 0, false
		}
	}
	end := time.Now()
	if c.tr != nil && c.tr.on.Load() {
		c.tr.record("client."+op, id, "", "", start, end)
	}
	return float64(end.Sub(start)) / 1e3, true
}

// runSession drives one tuning session the way the paper's client does:
// ask for a configuration, stress-test it (on the simulator), report what
// happened, until the policy's stopping rule fires. Before closing it asks
// the service what it recorded and checks that against what it sent.
func (c *httpClient) runSession(p plan) {
	cb := combos[p.Combo]
	ev := evaluatorFor(p)
	rec := sessionRec{plan: p, started: int64(time.Since(c.epoch))}
	path := "/v1/sessions/" + p.ID

	create := createBody(p, cb, &c.think, ev)
	if p.Warm {
		rec.experiments++
		rec.stressSec += create.DefaultRuntimeSec
	}
	var st service.StatusResponse
	lat, ok := c.call(p.ID, "create", 0, http.MethodPost, "/v1/sessions", create, &st, http.StatusCreated)
	if !ok {
		return
	}
	rec.create = lat
	rec.warmHit = st.WarmStarted
	if st.ID != p.ID {
		c.fail("%s: created as %q", p.ID, st.ID)
		return
	}

	acked := 0
	var last conf.Config
	bestSec := 0.0
	finished := false
	for round := 0; round < maxRounds; round++ {
		var sug service.SuggestResponse
		lat, ok := c.call(p.ID, "suggest", round, http.MethodPost, path+"/suggest", nil, &sug, http.StatusOK)
		if !ok {
			return
		}
		rec.suggests = append(rec.suggests, lat)
		if sug.Done {
			finished = true
			break
		}
		last = fromConfigJSON(sug.Config)
		smp, stats := c.think.experiment(ev, last)
		rec.experiments++
		rec.stressSec += smp.RuntimeSec
		if !smp.Result.Aborted && (bestSec == 0 || smp.RuntimeSec < bestSec) {
			bestSec = smp.RuntimeSec
		}
		lat, ok = c.call(p.ID, "observe", round, http.MethodPost, path+"/observe", service.ObserveRequest{
			Config:     sug.Config,
			RuntimeSec: smp.RuntimeSec,
			Aborted:    smp.Result.Aborted,
			GCOverhead: smp.Result.GCOverhead,
			Stats:      stats,
		}, &st, http.StatusOK)
		if !ok {
			return
		}
		rec.observes = append(rec.observes, lat)
		acked++
		if st.Done {
			finished = true
			break
		}
	}
	if !finished {
		c.fail("%s: no stopping rule after %d rounds", p.ID, maxRounds)
		return
	}

	lat, ok = c.call(p.ID, "status", 0, http.MethodGet, path, nil, &st, http.StatusOK)
	if !ok {
		return
	}
	rec.status = lat
	switch {
	case st.State != service.StateDone:
		c.fail("%s: state %q after its stopping rule fired (%s)", p.ID, st.State, st.Err)
		return
	case st.Evals != acked:
		c.fail("%s: service recorded %d evals, client had %d acknowledged", p.ID, st.Evals, acked)
		return
	case (bestSec > 0) != (st.Best != nil), st.Best != nil && st.Best.RuntimeSec != bestSec:
		c.fail("%s: service's best differs from the fastest run reported (%v)", p.ID, bestSec)
		return
	}
	// When every experiment aborted there is no best run; the policy's
	// last word is the configuration it suggested last.
	rec.recommended = last
	if st.Best != nil {
		rec.recommended = fromConfigJSON(st.Best.Config)
	}

	lat, ok = c.call(p.ID, "close", 0, http.MethodDelete, path, nil, nil, http.StatusNoContent)
	if !ok {
		return
	}
	rec.close = lat
	rec.done = int64(time.Since(c.epoch))
	c.recs = append(c.recs, rec)
}

// driveClients runs the case's closed-loop clients over the session stream
// of the given phase, from index first, until the stop function says so
// (checked between sessions), and returns them for their records.
func driveClients(cc caseConfig, url string, tr *tracer, seed uint64, phase int, epoch time.Time, stop func(next int) bool, first int) []*httpClient {
	clients := make([]*httpClient, cc.Clients)
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = newHTTPClient(url, tr, epoch)
		wg.Add(1)
		go func(c *httpClient) {
			defer wg.Done()
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if stop(i) {
					return
				}
				c.runSession(planSession(cc, seed, phase, i))
			}
		}(clients[i])
	}
	wg.Wait()
	return clients
}
