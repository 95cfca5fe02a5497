package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"relm/internal/obs"
	"relm/internal/replica"
)

// The endpoints NewHandler mounts from other packages — replication's
// follower half (internal/replica) and the trace ring (internal/obs) — were
// once handler bodies in this package. Every status code and body below was
// captured at the last commit where they still were; moving each next to
// the code that owns its protocol must not have changed what a node answers.

// wireCase is one request and the exact answer to it.
type wireCase struct {
	method, path, body string
	code               int
	want               string
}

var wireClock = regexp.MustCompile(`"(last_ingest|start|total_us)":("[^"]*"|[0-9.e+-]+)`)

func runWireCases(t *testing.T, h http.Handler, cases []wireCase) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceHeader, "t-pin")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Whatever is read off the clock is blanked; nothing else is.
		got := wireClock.ReplaceAllString(string(raw), `"$1":"T"`)
		if resp.StatusCode != c.code || got != c.want+"\n" {
			t.Errorf("%s %s moved: status %d, want %d\n got %s want %s", c.method, c.path, resp.StatusCode, c.code, got, c.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", c.method, c.path, ct)
		}
	}
}

func TestReplicaWireBytes(t *testing.T) {
	set, err := replica.New(replica.Options{Self: "b", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	m := newTestManager(t, Options{NodeID: "b", Workers: 1, Replica: set})
	h := NewHandler(m)

	seg := "/v1/replica/segments?primary=a&segment=1&min=0&offset="
	runWireCases(t, h, []wireCase{
		{"GET", "/v1/replica/status", "", 200, `{"node":"b","primaries":[],"followers":[]}`},
		{"POST", seg + "0", "hello ", 200, `{"size":6}`},
		{"POST", seg + "6", "world", 200, `{"size":11}`},
		// A replayed chunk: refused with the size to resume from.
		{"POST", seg + "0", "hello ", 409, `{"size":11,"error":"replica: offset mismatch, segment has 11 bytes"}`},
		{"POST", seg + "x", "hello ", 400, `{"size":0,"error":"bad segment/offset/min"}`},
		{"POST", "/v1/replica/segments?primary=a&segment=1&offset=11&min=-1", "!", 400, `{"size":0,"error":"bad segment/offset/min"}`},
		{"POST", "/v1/replica/segments?primary=a&segment=0&offset=0", "!", 400, `{"size":0,"error":"replica: segment index must be \u003e= 1"}`},
		{"POST", "/v1/replica/segments?primary=..&segment=1&offset=0", "!", 400, `{"size":0,"error":"replica: bad primary name \"..\""}`},
		// A snapshot that is not what its hash names is refused, not installed.
		{"POST", "/v1/replica/snapshot?primary=a&hash=cafe", `{"fence":3}`, 400, `{"size":0,"error":"replica: snapshot of a hashes to 6eb0612a9344aab9, not the cafe it was sent as"}`},
		{"POST", "/v1/replica/snapshot?primary=a&hash=6eb0612a9344aab9", `{"fence":3}`, 200, `{"size":11}`},
		{"POST", "/v1/replica/snapshot?primary=..", `{}`, 400, `{"size":0,"error":"replica: bad primary name \"..\""}`},
		{"GET", "/v1/replica/status?primary=a", "", 200, `{"node":"b","primaries":[{"primary":"a","segments":[{"index":1,"bytes":11}],"bytes":11,"snapshot_hash":"6eb0612a9344aab9","snapshot_bytes":11,"last_ingest":"T"}],"followers":[]}`},
		{"GET", "/v1/replica/status?primary=nobody", "", 200, `{"node":"b","primaries":null,"followers":[]}`},
	})

	// Promotion fences the replica: a zombie primary is told 410 and stops.
	if _, err := set.Promote("a"); err != nil {
		t.Fatal(err)
	}
	runWireCases(t, h, []wireCase{
		{"POST", seg + "11", "late", 410, `{"size":0,"error":"replica: primary promoted, ingest fenced"}`},
		{"POST", "/v1/replica/snapshot?primary=a", `{}`, 410, `{"size":0,"error":"replica: primary promoted, ingest fenced"}`},
		{"GET", "/v1/replica/status", "", 200, `{"node":"b","primaries":[{"primary":"a","segments":[{"index":1,"bytes":11}],"bytes":11,"snapshot_hash":"6eb0612a9344aab9","snapshot_bytes":11,"last_ingest":"T","promoted":true}],"followers":[]}`},
	})

	// Replication off is not an error to a shipper probing a peer: an empty
	// status reads as "holds nothing of mine". Ingest has nowhere to go.
	off := newTestManager(t, Options{NodeID: "c", Workers: 1})
	runWireCases(t, NewHandler(off), []wireCase{
		{"GET", "/v1/replica/status?primary=a", "", 200, `{"node":"c","primaries":null,"followers":null}`},
		{"POST", seg + "0", "hello ", 503, `{"size":0,"error":"replication not configured"}`},
		{"POST", "/v1/replica/snapshot?primary=a", `{}`, 503, `{"size":0,"error":"replication not configured"}`},
	})
}

func TestTracesWireBytes(t *testing.T) {
	const rec = `"method":"GET","path":"/healthz","start":"T","total_us":"T","spans":[]}`
	node := newTestManager(t, Options{NodeID: "b", Workers: 1})
	runWireCases(t, NewHandler(node), []wireCase{
		{"GET", "/healthz", "", 200, `{"node":"b","ok":true,"sessions":0}`},
		{"GET", "/v1/traces?id=t-pin", "", 200, `{"node":"b","traces":[{"id":"t-pin","node":"b",` + rec + `]}`},
		{"GET", "/v1/traces?id=t-none", "", 404, `{"error":"trace not found: t-none"}`},
		// Newest first; the two lookups above are traced requests too.
		{"GET", "/v1/traces?limit=1", "", 200, `{"node":"b","traces":[{"id":"t-pin","node":"b","method":"GET","path":"/v1/traces","start":"T","total_us":"T","spans":[]}]}`},
	})

	// A single node has no ID to label the body with; its records say "serve".
	single := newTestManager(t, Options{Workers: 1})
	runWireCases(t, NewHandler(single), []wireCase{
		{"GET", "/healthz", "", 200, `{"ok":true,"sessions":0}`},
		{"GET", "/v1/traces", "", 200, `{"traces":[{"id":"t-pin","node":"serve",` + rec + `]}`},
	})
}
