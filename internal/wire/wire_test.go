package wire

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// get is the plain exchange most tests make: a bodiless GET of "/" with no
// deadline and a 1-KiB answer limit.
func get(ctx context.Context, c *Client, srv *httptest.Server, limit int64) (int, http.Header, []byte, error) {
	return c.Do(ctx, time.Time{}, http.MethodGet, srv.Listener.Addr().String(), "/", "", "", nil, limit)
}

// echo answers with what it was sent, so a test reads the request off the
// answer: method, body, and the two headers Do may set (absent stays absent).
func echo(t *testing.T) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Method", r.Method)
		w.Header()["X-Content-Type"] = r.Header["Content-Type"]
		w.Header()["X-Trace"] = r.Header[TraceHeader]
		w.WriteHeader(http.StatusTeapot)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestDoSetsHeadersOnlyWhenAsked(t *testing.T) {
	srv := echo(t)
	var client Client
	defer client.Close()
	for _, c := range []struct {
		name, trace string
		body        []byte
	}{
		{"body and trace", "t-1", []byte(`{"a":1}`)},
		{"no body", "t-2", nil},
		{"no trace", "", []byte("x")},
		// An empty body is still a body: the router forwards a POST whose
		// client sent none.
		{"empty body", "", []byte{}},
	} {
		status, hdr, answer, err := client.Do(context.Background(), time.Time{}, http.MethodPost, srv.Listener.Addr().String(), "/", c.trace, "application/json", c.body, 1<<10)
		if err != nil || status != http.StatusTeapot {
			t.Fatalf("%s: status %d, err %v", c.name, status, err)
		}
		if string(answer) != string(c.body) || hdr.Get("X-Method") != http.MethodPost {
			t.Errorf("%s: peer saw %s %q", c.name, hdr.Get("X-Method"), answer)
		}
		var wantCT, wantTrace []string
		if c.body != nil {
			wantCT = []string{"application/json"}
		}
		if c.trace != "" {
			wantTrace = []string{c.trace}
		}
		if got := hdr["X-Content-Type"]; !reflect.DeepEqual(got, wantCT) {
			t.Errorf("%s: Content-Type %q, want %q — set iff there is a body", c.name, got, wantCT)
		}
		if got := hdr["X-Trace"]; !reflect.DeepEqual(got, wantTrace) {
			t.Errorf("%s: %s %q, want %q — set iff there is an ID", c.name, TraceHeader, got, wantTrace)
		}
	}
}

func TestDoCancelAbortsBlockedExchange(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release // accepted the request, never answers
	}))
	defer srv.Close()
	defer close(release)

	var client Client
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := get(ctx, &client, srv, 1<<10)
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled exchange returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do still blocked 5s after its context was cancelled")
	}
}

func TestDoRefusesAnswerOverLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Kept", "yes")
		io.WriteString(w, strings.Repeat("x", 17))
	}))
	defer srv.Close()
	var client Client
	defer client.Close()
	if _, _, answer, err := get(context.Background(), &client, srv, 17); err != nil || len(answer) != 17 {
		t.Fatalf("answer of exactly the limit: %d bytes, err %v", len(answer), err)
	}
	status, hdr, _, err := get(context.Background(), &client, srv, 16)
	if err == nil {
		t.Fatal("a 17-byte answer under a 16-byte limit was passed on as complete")
	}
	if status != http.StatusOK || hdr.Get("X-Kept") != "yes" {
		t.Errorf("status %d and header %v lost with the oversized body", status, hdr)
	}
}

func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]int{"n": 1})
	if rec.Code != http.StatusCreated || rec.Body.String() != `{"n":1}`+"\n" || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("reply: %d %q %v", rec.Code, rec.Body.String(), rec.Header())
	}

	// NaN cannot be marshalled: the client must see a 500 that says so, not
	// the 200 with an empty body a header-first encoder would leave.
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"runtime_sec": math.NaN()})
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("unmarshalable value: status %d, %v", rec.Code, rec.Header())
	}
	if want := `{"error":"encode response: json: unsupported value: NaN"}`; rec.Body.String() != want {
		t.Errorf("unmarshalable value: body %q, want %q", rec.Body.String(), want)
	}
}
