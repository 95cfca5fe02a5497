package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxIdlePerPeer bounds the connections parked per peer; an exchange beyond
// it still gets one of its own, closed after use.
const maxIdlePerPeer = 64

// Client is the sending half of every exchange between two relm processes: a
// pool of plain TCP connections per peer, and Do. The zero value is ready to
// use; it must not be copied.
type Client struct {
	// Dial opens a connection as net.Dialer.DialContext does, which it is
	// when nil. The only seam: in-memory rigs hand out a net.Pipe here.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)

	mu     sync.Mutex
	idle   map[string][]*conn // per peer, most recently parked last
	closed bool
}

// conn is one connection to a peer, owned by a single exchange at a time.
type conn struct {
	net.Conn
	br     *bufio.Reader
	buf    []byte // the request head (and a small body), rebuilt in place for each exchange
	reused bool   // carried an exchange before this one
}

// ParseBase reads a peer's base URL, once, into what Do takes: Host is the
// host:port to connect to and Path the prefix to put before every path.
// Hops between relm processes are plain HTTP; another scheme is refused.
func ParseBase(raw string) (*url.URL, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme != "http" || u.Host == "" || u.User != nil || u.RawQuery != "" || u.EscapedPath() != u.Path {
		return nil, fmt.Errorf("bad URL %q (want http://host[:port][/prefix])", raw)
	}
	if u.Port() == "" {
		u.Host = net.JoinHostPort(u.Hostname(), "80")
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	return u, nil
}

// Do performs one HTTP/1.1 exchange with the peer at host (host:port), whole,
// on the caller's goroutine. path goes on the wire as it is: escaped, query
// included. The exchange ends by the earlier of deadline (zero is none) and
// ctx's own, or when ctx is cancelled; the error then wraps ctx's. The
// request has a Content-Type only when it has a body (nil is none) and a
// TraceHeader only when traceID is not empty. More than limit bytes of answer
// is an error, never a truncated body handed on as complete; when reading
// the answer fails, status and header are still what the peer sent.
//
// A connection is parked only after its answer was read whole and the peer
// did not ask to close it. A request is sent again, on a fresh connection,
// only under net/http's rule: it went out on a reused one and either none of
// it was written or it is a bodiless GET that got no byte of an answer.
func (c *Client) Do(ctx context.Context, deadline time.Time, method, host, path, traceID, contentType string, body []byte, limit int64) (status int, header http.Header, answer []byte, err error) {
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if strings.ContainsAny(path, " \r\n") || strings.ContainsAny(traceID, "\r\n") || strings.ContainsAny(contentType, "\r\n") {
		return 0, nil, nil, fmt.Errorf("wire: %s %s: path or header would split the request", method, host)
	}
	for {
		var cn *conn
		if err = ctx.Err(); err == nil {
			cn, err = c.get(ctx, deadline, host)
		}
		if err != nil {
			return 0, nil, nil, fmt.Errorf("wire: %s %s%s: %w", method, host, path, err)
		}
		cn.SetDeadline(deadline) // first: it must not overwrite a cancellation
		stop := context.AfterFunc(ctx, func() { cn.SetDeadline(time.Unix(1, 0)) })
		var wrote int
		if wrote, err = cn.send(method, host, path, traceID, contentType, body); err == nil {
			_, err = cn.br.Peek(1)
		}
		early, keep := err != nil, false // early: not one byte of an answer
		if !early {
			status, header, answer, keep, err = cn.readAnswer(limit)
		}
		// Once the cancellation has begun to run (stop is false) it may
		// expire the connection at any moment, so that one is not kept.
		c.put(host, cn, stop() && keep)
		if err == nil {
			return status, header, answer, nil
		}
		if cause := ctx.Err(); cause != nil {
			err = cause
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			err = context.DeadlineExceeded
		} else if early && cn.reused {
			// The peer hung up on a parked connection; those beside it are as old.
			c.drop(host)
			if wrote == 0 || (body == nil && method == http.MethodGet) {
				continue
			}
		}
		return status, header, nil, fmt.Errorf("wire: %s %s%s: %w", method, host, path, err)
	}
}

// Close closes the parked connections, and those in use as they come back.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.drop("")
}

// drop closes the connections parked for host, for every peer when it is "".
func (c *Client) drop(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for h, list := range c.idle {
		if host == "" || h == host {
			for _, cn := range list {
				cn.Close()
			}
			delete(c.idle, h)
		}
	}
}

// get hands out the most recently parked connection to host, or dials one.
func (c *Client) get(ctx context.Context, deadline time.Time, host string) (*conn, error) {
	c.mu.Lock()
	if list := c.idle[host]; len(list) > 0 {
		cn := list[len(list)-1]
		c.idle[host] = list[:len(list)-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	dial := c.Dial
	if dial == nil {
		dial = (&net.Dialer{Deadline: deadline}).DialContext
	}
	nc, err := dial(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: nc, br: bufio.NewReader(nc)}, nil
}

// put parks cn if it is fit to keep and there is room, and closes it if not.
func (c *Client) put(host string, cn *conn, keep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !keep || c.closed || len(c.idle[host]) >= maxIdlePerPeer {
		cn.Close()
		return
	}
	cn.reused = true
	if c.idle == nil {
		c.idle = make(map[string][]*conn)
	}
	c.idle[host] = append(c.idle[host], cn)
}

// send writes the request; wrote is how many bytes of its head went out.
func (cn *conn) send(method, host, path, traceID, contentType string, body []byte) (wrote int, err error) {
	b := append(cn.buf[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	if body != nil {
		b = append(b, "\r\nContent-Type: "...)
		b = append(b, contentType...)
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	if traceID != "" {
		b = append(b, "\r\n"+TraceHeader+": "...)
		b = append(b, traceID...)
	}
	b = append(b, "\r\n\r\n"...)
	if len(body) <= 4<<10 { // rides in the head's write; a larger one (a shipped segment) is not copied
		b, body = append(b, body...), nil
	}
	cn.buf = b
	if wrote, err = cn.Write(b); err == nil && body != nil {
		_, err = cn.Write(body)
	}
	return wrote, err
}

// readAnswer reads one response. keep: it was read to its end, nothing is
// behind it and the peer leaves the connection open.
func (cn *conn) readAnswer(limit int64) (status int, header http.Header, answer []byte, keep bool, err error) {
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, nil, nil, false, err
	}
	if n := resp.ContentLength; n >= 0 && n <= limit {
		answer = make([]byte, n)
		_, err = io.ReadFull(resp.Body, answer)
	} else if n < 0 { // chunked, or delimited by the peer closing
		answer, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
	}
	if err == nil && max(resp.ContentLength, int64(len(answer))) > limit {
		err = fmt.Errorf("answered more than %d bytes", limit)
	}
	return resp.StatusCode, resp.Header, answer, err == nil && !resp.Close && cn.br.Buffered() == 0, err
}
