package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peer is the far end of a Client's connections, in memory: every Dial makes
// a net.Pipe and runs serve on the other end, on a goroutine of its own, with
// the connection's ordinal (0 is the first one dialled); wg waits for every
// serve to return.
type peer struct {
	serve func(ord int, c net.Conn)
	dials atomic.Int32
	wg    sync.WaitGroup
}

func (p *peer) dial(context.Context, string, string) (net.Conn, error) {
	near, far := net.Pipe()
	ord := int(p.dials.Add(1)) - 1
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer far.Close()
		p.serve(ord, far)
	}()
	return near, nil
}

// readRequest reads one whole request off the connection, body included;
// false when the client closed it instead.
func readRequest(br *bufio.Reader) bool {
	req, err := http.ReadRequest(br)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, req.Body)
	return err == nil
}

const host = "peer.test:80"

// idleTo is how many connections c has parked for host.
func idleTo(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle[host])
}

func post(ctx context.Context, c *Client, deadline time.Time, limit int64) (int, http.Header, []byte, error) {
	return c.Do(ctx, deadline, http.MethodPost, host, "/x", "", "text/plain", []byte("ping"), limit)
}

const (
	answerBody  = "0123456789abcdefghijklmnopqrstuvwxyz"
	lengthReply = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 36\r\n\r\n" + answerBody
	// The same 36 bytes in three chunks, with a trailer behind the last.
	chunkedReply = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n" +
		"a\r\n0123456789\r\n10\r\nabcdefghijklmnop\r\na\r\nqrstuvwxyz\r\n0\r\nX-Sum: 1\r\n\r\n"
)

// TestDoEveryCutOfAnAnswer cuts the peer's answer at every byte boundary —
// of a Content-Length answer and of a chunked one — on a connection that has
// already carried one exchange. Whatever the cut, Do must not hand back a
// short body as if it were the answer, must not park the connection, and
// must not send the POST a second time.
func TestDoEveryCutOfAnAnswer(t *testing.T) {
	for name, reply := range map[string]string{"content-length": lengthReply, "chunked": chunkedReply} {
		for cut := 0; cut <= len(reply); cut++ {
			p := &peer{serve: func(_ int, c net.Conn) {
				br := bufio.NewReader(c)
				if readRequest(br) {
					io.WriteString(c, reply)
				}
				if readRequest(br) {
					io.WriteString(c, reply[:cut])
				}
				if cut == len(reply) {
					readRequest(br) // left open: waits for the client to close
				}
			}}
			c := &Client{Dial: p.dial}
			if _, _, answer, err := post(context.Background(), c, time.Time{}, 1<<10); err != nil || string(answer) != answerBody || idleTo(c) != 1 {
				t.Fatalf("%s: first exchange: answer %q, err %v, %d parked", name, answer, err, idleTo(c))
			}
			status, _, answer, err := post(context.Background(), c, time.Time{}, 1<<10)
			if cut == len(reply) {
				if err != nil || status != http.StatusOK || string(answer) != answerBody || idleTo(c) != 1 {
					t.Errorf("%s whole: status %d, answer %q, err %v, %d parked", name, status, answer, err, idleTo(c))
				}
			} else {
				if err == nil || answer != nil {
					t.Errorf("%s cut at %d of %d: answer %q returned as complete (err %v)", name, cut, len(reply), answer, err)
				}
				if n := idleTo(c); n != 0 {
					t.Errorf("%s cut at %d: %d connections parked after a cut answer", name, cut, n)
				}
			}
			c.Close()
			p.wg.Wait()
			if n := p.dials.Load(); n != 1 {
				t.Errorf("%s cut at %d: %d connections dialled, want 1 — a POST is not sent twice", name, cut, n)
			}
		}
	}
}

// TestDoResendRule: a request goes out a second time, on a fresh connection,
// only when the first went on a parked one and either nothing of it was
// written or it is a bodiless GET that got no byte of an answer.
func TestDoResendRule(t *testing.T) {
	for _, tc := range []struct {
		name       string
		method     string
		body       []byte
		readSecond bool // the peer reads the request it will not answer (as a TCP peer's kernel would)
		wantDials  int32
	}{
		{"GET unanswered on a parked connection is sent again", http.MethodGet, nil, true, 2},
		{"POST unanswered on a parked connection is a transport error", http.MethodPost, []byte("ping"), true, 1},
		{"DELETE is not sent again either", http.MethodDelete, nil, true, 1},
		{"POST of which nothing was written is sent again", http.MethodPost, []byte("ping"), false, 2},
	} {
		p := &peer{}
		p.serve = func(ord int, c net.Conn) {
			br := bufio.NewReader(c)
			if readRequest(br) {
				io.WriteString(c, lengthReply)
			}
			if ord == 0 && tc.readSecond {
				readRequest(br)
			}
			// The first connection is closed here; the second answers once.
		}
		c := &Client{Dial: p.dial}
		do := func() error {
			_, _, answer, err := c.Do(context.Background(), time.Time{}, tc.method, host, "/x", "", "text/plain", tc.body, 1<<10)
			if err == nil && string(answer) != answerBody {
				t.Errorf("%s: answer %q", tc.name, answer)
			}
			return err
		}
		if err := do(); err != nil {
			t.Fatalf("%s: first exchange: %v", tc.name, err)
		}
		if !tc.readSecond {
			// Wait until the peer has hung up, so the write meets a closed pipe.
			p.wg.Wait()
		}
		err := do()
		if tc.wantDials == 2 && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.wantDials == 1 && (err == nil || !errors.Is(err, io.EOF)) {
			t.Errorf("%s: err %v, want the peer's EOF surfaced", tc.name, err)
		}
		c.Close()
		p.wg.Wait()
		if n := p.dials.Load(); n != tc.wantDials {
			t.Errorf("%s: %d connections dialled, want %d", tc.name, n, tc.wantDials)
		}
	}

	// A fresh connection that dies is never retried, GET or not.
	p := &peer{serve: func(_ int, c net.Conn) { readRequest(bufio.NewReader(c)) }}
	c := &Client{Dial: p.dial}
	if _, _, _, err := c.Do(context.Background(), time.Time{}, http.MethodGet, host, "/x", "", "", nil, 1<<10); err == nil {
		t.Error("GET on a fresh connection the peer closed: no error")
	}
	if n := p.dials.Load(); n != 1 {
		t.Errorf("GET on a fresh connection: %d dials, want 1", n)
	}
}

// TestDoAHungUpPeerTakesItsParkedConnectionsAlong: when a parked connection
// turns out dead, the ones parked beside it are dropped with it, so a peer's
// restart costs one failed POST and not one per connection.
func TestDoAHungUpPeerTakesItsParkedConnectionsAlong(t *testing.T) {
	release, hangUp := make(chan struct{}), make(chan struct{})
	p := &peer{serve: func(ord int, c net.Conn) {
		br := bufio.NewReader(c)
		readRequest(br)
		<-release
		io.WriteString(c, lengthReply)
		if ord < 3 {
			<-hangUp
			readRequest(br)
			return
		}
		for readRequest(br) {
			io.WriteString(c, lengthReply)
		}
	}}
	c := &Client{Dial: p.dial}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := post(context.Background(), c, time.Time{}, 1<<10); err != nil {
				t.Error(err)
			}
		}()
	}
	for p.dials.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := idleTo(c); n != 3 {
		t.Fatalf("%d parked after three concurrent exchanges, want 3", n)
	}
	close(hangUp)
	if _, _, _, err := post(context.Background(), c, time.Time{}, 1<<10); err == nil {
		t.Fatal("POST on a connection the peer hung up on: no error")
	}
	if n := idleTo(c); n != 0 {
		t.Errorf("%d connections still parked after one proved dead, want 0", n)
	}
	if _, _, _, err := post(context.Background(), c, time.Time{}, 1<<10); err != nil {
		t.Errorf("the next POST, on a fresh connection: %v", err)
	}
}

func TestDoAnswerShapes(t *testing.T) {
	head := "HTTP/1.1 404 Not Found\r\nX-Kept: yes\r\n"
	for _, tc := range []struct {
		name, reply string
		limit       int64
		wantErr     bool
		wantParked  int
	}{
		{"exactly the limit", head + "Content-Length: 4\r\n\r\nbody", 4, false, 1},
		{"one byte over, by Content-Length", head + "Content-Length: 5\r\n\r\nbody!", 4, true, 0},
		{"one byte over, chunked", head + "Transfer-Encoding: chunked\r\n\r\n5\r\nbody!\r\n0\r\n\r\n", 4, true, 0},
		{"chunked within the limit", head + "Transfer-Encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n", 4, false, 1},
		{"Connection: close", head + "Connection: close\r\nContent-Length: 4\r\n\r\nbody", 4, false, 0},
		{"delimited by the close", head + "\r\nbody", 4, false, 0},
		{"HTTP/1.0", "HTTP/1.0 404 Not Found\r\nX-Kept: yes\r\nContent-Length: 4\r\n\r\nbody", 4, false, 0},
		{"bytes behind the answer", head + "Content-Length: 4\r\n\r\nbodyHTTP/1.1 200 OK\r\n", 4, false, 0},
		{"no body", head + "Content-Length: 0\r\n\r\n", 4, false, 1},
	} {
		p := &peer{serve: func(_ int, c net.Conn) {
			br := bufio.NewReader(c)
			if readRequest(br) {
				io.WriteString(c, tc.reply)
			}
			if tc.wantParked == 1 {
				readRequest(br)
			}
		}}
		c := &Client{Dial: p.dial}
		status, hdr, answer, err := post(context.Background(), c, time.Time{}, tc.limit)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err %v", tc.name, err)
		}
		if status != http.StatusNotFound || hdr.Get("X-Kept") != "yes" {
			t.Errorf("%s: status %d, header %v — kept also when the body is refused", tc.name, status, hdr)
		}
		if want := "body"; err == nil && string(answer) != want && tc.name != "no body" {
			t.Errorf("%s: answer %q, want %q", tc.name, answer, want)
		}
		if err != nil && answer != nil {
			t.Errorf("%s: %q handed back beside the error", tc.name, answer)
		}
		if n := idleTo(c); n != tc.wantParked {
			t.Errorf("%s: %d parked, want %d", tc.name, n, tc.wantParked)
		}
		c.Close()
		p.wg.Wait()
	}
}

func TestDoDialRefusedAndBadTarget(t *testing.T) {
	refused := errors.New("connection refused")
	c := &Client{Dial: func(context.Context, string, string) (net.Conn, error) { return nil, refused }}
	if _, _, _, err := post(context.Background(), c, time.Time{}, 1<<10); !errors.Is(err, refused) || !strings.Contains(err.Error(), "POST "+host+"/x") {
		t.Errorf("err %v, want the dial error wrapped with the request it was for", err)
	}
	// Over real TCP: a port nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var tcp Client
	if _, _, _, err := tcp.Do(context.Background(), time.Now().Add(5*time.Second), http.MethodGet, addr, "/", "", "", nil, 1<<10); err == nil {
		t.Error("GET to a closed port: no error")
	}
	// What would split the request line or a header never reaches a dial.
	for _, bad := range [][2]string{{"/a b", ""}, {"/a\r\nX: y", ""}, {"/a", "t\r\nX: y"}} {
		if _, _, _, err := c.Do(context.Background(), time.Time{}, http.MethodGet, host, bad[0], bad[1], "", nil, 1<<10); err == nil || errors.Is(err, refused) {
			t.Errorf("path %q trace %q: err %v, want a refusal before dialling", bad[0], bad[1], err)
		}
	}
}

// TestDoDeadlineAndCancelMidBody: the peer sends the head and half the body,
// then stalls. Do returns promptly with the context's own error and does not
// park the connection.
func TestDoDeadlineAndCancelMidBody(t *testing.T) {
	for _, tc := range []struct {
		name string
		want error
		run  func(c *Client, stalled <-chan struct{}) error
	}{
		{"deadline argument", context.DeadlineExceeded, func(c *Client, _ <-chan struct{}) error {
			_, _, _, err := post(context.Background(), c, time.Now().Add(30*time.Millisecond), 1<<10)
			return err
		}},
		{"context deadline", context.DeadlineExceeded, func(c *Client, _ <-chan struct{}) error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, _, _, err := post(ctx, c, time.Now().Add(time.Hour), 1<<10)
			return err
		}},
		{"cancelled", context.Canceled, func(c *Client, stalled <-chan struct{}) error {
			ctx, cancel := context.WithCancel(context.Background())
			go func() { <-stalled; cancel() }()
			_, _, _, err := post(ctx, c, time.Now().Add(time.Hour), 1<<10)
			return err
		}},
	} {
		stalled, done := make(chan struct{}), make(chan struct{})
		p := &peer{serve: func(_ int, c net.Conn) {
			if readRequest(bufio.NewReader(c)) {
				io.WriteString(c, lengthReply[:len(lengthReply)-18])
			}
			close(stalled)
			<-done
		}}
		c := &Client{Dial: p.dial}
		start := time.Now()
		err := tc.run(c, stalled)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("%s: returned after %v", tc.name, took)
		}
		if n := idleTo(c); n != 0 {
			t.Errorf("%s: %d parked, want the connection discarded", tc.name, n)
		}
		close(done)
		p.wg.Wait()
	}

	// A context that is already over dials nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &peer{serve: func(int, net.Conn) {}}
	c := &Client{Dial: p.dial}
	if _, _, _, err := post(ctx, c, time.Time{}, 1<<10); !errors.Is(err, context.Canceled) || p.dials.Load() != 0 {
		t.Errorf("cancelled before the call: err %v, %d dials", err, p.dials.Load())
	}
}

// TestPoolCapAndClose: more exchanges than maxIdlePerPeer may be in flight at
// once, each on its own connection; only maxIdlePerPeer are parked behind
// them. Close closes what is parked, and a connection that comes back later.
func TestPoolCapAndClose(t *testing.T) {
	const inFlight = maxIdlePerPeer + 8
	release := make(chan struct{})
	var closedByClient atomic.Int32
	p := &peer{serve: func(_ int, c net.Conn) {
		br := bufio.NewReader(c)
		readRequest(br)
		<-release
		io.WriteString(c, lengthReply)
		for readRequest(br) {
			io.WriteString(c, lengthReply)
		}
		closedByClient.Add(1)
	}}
	c := &Client{Dial: p.dial}
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := post(context.Background(), c, time.Time{}, 1<<10); err != nil {
				t.Error(err)
			}
		}()
	}
	for p.dials.Load() < inFlight {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := idleTo(c); n != maxIdlePerPeer {
		t.Errorf("%d parked after %d concurrent exchanges, want the cap %d", n, inFlight, maxIdlePerPeer)
	}
	c.Close()
	p.wg.Wait()
	if n := closedByClient.Load(); n != inFlight {
		t.Errorf("%d of %d connections closed by the client after Close", n, inFlight)
	}
	// Still usable, but nothing is parked any more.
	if _, _, _, err := post(context.Background(), c, time.Time{}, 1<<10); err != nil || idleTo(c) != 0 {
		t.Errorf("after Close: err %v, %d parked", err, idleTo(c))
	}
	p.wg.Wait()
}

// TestDoConcurrent: 64 goroutines share one Client over loopback TCP (run
// under -race in CI); every answer belongs to the request that got it.
func TestDoConcurrent(t *testing.T) {
	srv := echo(t)
	addr := srv.Listener.Addr().String()
	var c Client
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// Every fourth body is too large to go out in the head's write.
				body := bytes.Repeat([]byte(fmt.Sprintf("%d/%d;", g, i)), 1+(i%4/3)*2000)
				trace := fmt.Sprintf("t-%d-%d", g, i)
				_, hdr, answer, err := c.Do(context.Background(), time.Now().Add(30*time.Second), http.MethodPost, addr, "/", trace, "text/plain", body, 1<<20)
				if err != nil || !bytes.Equal(answer, body) || hdr.Get("X-Trace") != trace {
					t.Errorf("exchange %d/%d: %d bytes back for %d, trace %q, err %v", g, i, len(answer), len(body), hdr.Get("X-Trace"), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	parked := len(c.idle[addr])
	c.mu.Unlock()
	if parked == 0 || parked > 64 {
		t.Errorf("%d connections parked after 64 concurrent callers", parked)
	}
}

// TestExchangeAllocations holds one exchange on a warm connection to what
// parsing the answer costs: the response, its header map and strings, and
// the answer's buffer — no request object, no URL, no timer, no goroutine.
func TestExchangeAllocations(t *testing.T) {
	body := []byte(`{"config":{"a":1},"runtime_sec":150}`)
	p := &peer{serve: func(_ int, c net.Conn) {
		// Allocates nothing per request: reads until the body's last byte
		// (a pipe delivers head and body as two writes), then answers.
		buf, n := make([]byte, 4096), 0
		for {
			m, err := c.Read(buf[n:])
			if n += m; err != nil {
				return
			}
			if bytes.HasSuffix(buf[:n], body) {
				n = 0
				if _, err := io.WriteString(c, lengthReply); err != nil {
					return
				}
			}
		}
	}}
	c := &Client{Dial: p.dial}
	defer c.Close()
	exchange := func() {
		if _, _, answer, err := c.Do(context.Background(), time.Time{}, http.MethodPost, host, "/v1/sessions/s-1/observe", "t-1", "application/json", body, 1<<20); err != nil || len(answer) != len(answerBody) {
			t.Fatalf("answer %q, err %v", answer, err)
		}
	}
	exchange()         // dial, and grow the connection's buffers
	const ceiling = 16 // 14 on go1.24
	if got := testing.AllocsPerRun(200, exchange); got > ceiling {
		t.Errorf("one exchange on a warm connection: %v allocs, want <= %d", got, ceiling)
	}
}

func TestParseBase(t *testing.T) {
	for raw, want := range map[string][2]string{
		"http://10.0.0.1:8080":      {"10.0.0.1:8080", ""},
		"http://10.0.0.1:8080/":     {"10.0.0.1:8080", ""},
		"http://node-a":             {"node-a:80", ""},
		"http://[::1]":              {"[::1]:80", ""},
		"http://node-a:81/relm/v2/": {"node-a:81", "/relm/v2"},
	} {
		u, err := ParseBase(raw)
		if err != nil || u.Host != want[0] || u.Path != want[1] {
			t.Errorf("ParseBase(%q) = %v, %v; want host %q prefix %q", raw, u, err, want[0], want[1])
		}
	}
	for _, raw := range []string{"", "node-a:8080", "https://node-a", "http://", "http://node-a?x=1", "http://u:p@node-a", "http://node-a/a b"} {
		if u, err := ParseBase(raw); err == nil {
			t.Errorf("ParseBase(%q) = %v, want an error", raw, u)
		}
	}
}
