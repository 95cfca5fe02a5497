package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"relm/internal/obs"
	"relm/internal/replica"
	"relm/internal/router"
	"relm/internal/service"
	"relm/internal/store"
)

// fileOptions is the durable configuration every workload uses: each
// append fsynced before it is acknowledged, on the group-commit path, with
// no added coalescing wait.
func fileOptions(reg *obs.Registry) store.FileOptions {
	return store.FileOptions{
		SyncEachAppend: true,
		CommitInterval: 0,
		AppendHist:     reg.Histogram("wal.append"),
		FlushWaitHist:  reg.Histogram("wal.flush_wait"),
	}
}

// dataRoot makes the run's data directory. /dev/shm is preferred: fsync
// stays a real system call on the real group-commit path, but what it
// costs is the program's doing and not a shared disk's — on the sandbox's
// root disk the device flush is three quarters of every tuning step and a
// run measures the disk. When /dev/shm cannot be written the directory
// falls inside the checkout's build directory. It is removed when the run
// ends, also when the run is interrupted.
func dataRoot() (dir, fs string, err error) {
	fs = "tmpfs:/dev/shm"
	if dir, err = os.MkdirTemp("/dev/shm", "relm-bench-"); err != nil {
		base := os.Getenv("RELM_BENCH_BUILD_DIR")
		if base == "" {
			base = ".bench_build"
		}
		if err = os.MkdirAll(base, 0o755); err != nil {
			return "", "", err
		}
		fs = "checkout:" + base
		if dir, err = os.MkdirTemp(base, "data-"); err != nil {
			return "", "", err
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(130)
	}()
	return dir, fs, nil
}

// backend is one relm-serve node, wired as cmd/relm-serve wires it.
type backend struct {
	id  string
	url string
	reg *obs.Registry
	st  *store.File
	ts  *tracedStore // nil in an untraced run
	set *replica.Set
	m   *service.Manager
	srv *http.Server
}

// testCluster is the system under test of the serve workloads: a router in
// front of two durable nodes that replicate to each other, all in this
// process, talking over loopback HTTP.
type testCluster struct {
	nodes     []*backend
	rt        *router.Router
	routerReg *obs.Registry
	routerSrv *http.Server
	url       string
}

func bootCluster(root string, tr *tracer) (_ *testCluster, err error) {
	c := &testCluster{}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	ids := []string{"a", "b"}
	lns := make([]net.Listener, len(ids))
	peers := make([]replica.Peer, len(ids))
	for i, id := range ids {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		peers[i] = replica.Peer{Name: id, URL: "http://" + lns[i].Addr().String()}
	}
	var routed []router.Backend
	for i, id := range ids {
		n := &backend{id: id, url: peers[i].URL, reg: obs.NewRegistry()}
		c.nodes = append(c.nodes, n)
		dir := filepath.Join(root, id)
		if n.st, err = store.OpenFile(dir, fileOptions(n.reg)); err != nil {
			return nil, err
		}
		n.set, err = replica.New(replica.Options{
			Self:       id,
			Peers:      peers,
			Factor:     1,
			Dir:        filepath.Join(dir, "replicas"),
			Source:     n.st,
			Interval:   100 * time.Millisecond,
			ShipHist:   n.reg.Histogram("replica.ship"),
			IngestHist: n.reg.Histogram("replica.ingest"),
		})
		if err != nil {
			return nil, err
		}
		opts := service.Options{NodeID: id, Advertise: n.url, Obs: n.reg, Replica: n.set, Store: n.st}
		if tr != nil {
			n.ts = &tracedStore{Store: n.st, t: tr, node: id}
			opts.Store = n.ts
		}
		if n.m, err = service.Open(opts); err != nil {
			return nil, err
		}
		h := service.NewHandler(n.m)
		if tr != nil {
			h = tr.wrapService(id, h)
		}
		n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		go n.srv.Serve(lns[i])
		routed = append(routed, router.Backend{Name: id, URL: n.url})
	}

	c.routerReg = obs.NewRegistry()
	if c.rt, err = router.New(router.Options{Backends: routed, Obs: c.routerReg}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = c.rt
	if tr != nil {
		h = tr.wrapRouter(h)
	}
	c.routerSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go c.routerSrv.Serve(ln)
	c.url = "http://" + ln.Addr().String()
	return c, c.waitHealthy(len(ids))
}

// waitHealthy blocks until the router's health checkers have seen every
// backend, so no request of the run meets an "unhealthy" node.
func (c *testCluster) waitHealthy(want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			var h struct {
				Healthy int `json:"healthy"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && h.Healthy == want {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("router never saw every backend healthy")
}

// retries sums the router's per-node retry counters (GET /v1/cluster).
func (c *testCluster) retries() (uint64, error) {
	resp, err := http.Get(c.url + "/v1/cluster")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var cl struct {
		Nodes []router.NodeStatus `json:"nodes"`
	}
	if err := json.Unmarshal(body, &cl); err != nil {
		return 0, fmt.Errorf("decode /v1/cluster: %w", err)
	}
	var n uint64
	for _, ns := range cl.Nodes {
		n += ns.Retries
	}
	return n, nil
}

// stageSnapshots returns the exported stage histograms: the router's
// registry first, then each node's.
func (c *testCluster) stageSnapshots() []map[string]obs.Snapshot {
	out := []map[string]obs.Snapshot{c.routerReg.Snapshots()}
	for _, n := range c.nodes {
		out = append(out, n.m.Metrics().Stages)
	}
	return out
}

// Close stops the front door first, then each node the way relm-serve
// shuts down: listener, shipper, manager (which closes the store).
func (c *testCluster) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if c.routerSrv != nil {
		c.routerSrv.Shutdown(ctx)
	}
	if c.rt != nil {
		c.rt.Close()
	}
	for _, n := range c.nodes {
		if n.srv != nil {
			n.srv.Shutdown(ctx)
		}
		if n.set != nil {
			n.set.Close()
		}
		if n.m != nil {
			n.m.Close()
		} else if n.st != nil {
			n.st.Close()
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}
