package router

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// TestOversizedBodyIsRefusedNotTruncated: a request body over maxBody is
// answered 413 before any backend is asked — with or without a
// Content-Length — never cut to size and forwarded as if complete; one of
// exactly maxBody reaches the backend whole.
func TestOversizedBodyIsRefusedNotTruncated(t *testing.T) {
	var asked atomic.Int64
	_, front, _ := loopbackRouter(t, func(w http.ResponseWriter, req *http.Request) {
		asked.Add(1)
		n, _ := io.Copy(io.Discard, req.Body)
		fmt.Fprintf(w, `{"got":%d}`, n)
	})

	// A JSON object of exactly n bytes, so a create's body parses.
	object := func(n int) []byte {
		return []byte(`{"id":"s-1","pad":"` + strings.Repeat("x", n-len(`{"id":"s-1","pad":""}`)) + `"}`)
	}
	post := func(path string, body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(front+path, "application/json", body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		answer, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(answer)
	}
	for _, path := range []string{"/v1/sessions", "/v1/sessions/s-1/observe"} {
		over := object(maxBody + 1)
		if code, answer := post(path, bytes.NewReader(over)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, %d bytes announced: %d %.80s, want 413", path, len(over), code, answer)
		}
		// io.MultiReader hides the length: the request goes out chunked.
		if code, answer := post(path, io.MultiReader(bytes.NewReader(over))); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, %d bytes chunked: %d %.80s, want 413", path, len(over), code, answer)
		}
		if n := asked.Load(); n != 0 {
			t.Fatalf("%s: %d backend requests made for refused bodies", path, n)
		}
	}
	if code, answer := post("/v1/sessions/s-1/observe", bytes.NewReader(object(maxBody))); code != http.StatusOK || answer != fmt.Sprintf(`{"got":%d}`, maxBody) {
		t.Errorf("body of exactly the limit: %d %.80s, want it forwarded whole", code, answer)
	}
	// The import fan-out has the same rule at its own limit; the length the
	// client announces is enough to be refused on.
	conn, err := net.Dial("tcp", strings.TrimPrefix(front, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/repository/import HTTP/1.1\r\nHost: router\r\nContent-Length: %d\r\n\r\n", 64<<20+1)
	if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || asked.Load() != 1 {
		t.Errorf("import announcing 64 MiB + 1: %v, err %v, %d backend requests; want 413 and no request more", resp, err, asked.Load())
	}
	if code, answer := post("/v1/sessions", io.MultiReader(bytes.NewReader(object(64<<10)))); code != http.StatusOK || answer != fmt.Sprintf(`{"got":%d}`, 64<<10) {
		t.Errorf("64-KiB chunked create: %d %.80s, want it forwarded whole", code, answer)
	}
}
