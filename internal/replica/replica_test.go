package replica

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"relm/internal/store"
)

// TestParsePeers: relm-serve's -replicate-to and relm-router's -backends
// take comma-separated name=url pairs, blanks around and between them
// ignored, and refuse a pair missing its name, its URL or its '=', and a
// list that names no peer.
func TestParsePeers(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want []Peer
	}{
		{"b=http://127.0.0.1:8081", []Peer{{Name: "b", URL: "http://127.0.0.1:8081"}}},
		{" b=http://h:1 , c=http://h:2,", []Peer{{Name: "b", URL: "http://h:1"}, {Name: "c", URL: "http://h:2"}}},
		{"b=http://h:1?x=y", []Peer{{Name: "b", URL: "http://h:1?x=y"}}},
	} {
		got, err := ParsePeers(tt.in)
		if err != nil || !reflect.DeepEqual(got, tt.want) {
			t.Errorf("ParsePeers(%q) = %v, %v, want %v", tt.in, got, err, tt.want)
		}
	}
	for _, in := range []string{"", "  ", ",", " , ", "b", "b=", "=http://h:1", "b=http://h:1,c"} {
		if got, err := ParsePeers(in); err == nil {
			t.Errorf("ParsePeers(%q) = %v, want an error", in, got)
		}
	}
}

func TestFollowersPlacement(t *testing.T) {
	peers := []Peer{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}

	one := Followers("a", peers, 1)
	if len(one) != 1 || one[0].Name == "a" {
		t.Fatalf("factor 1: got %v", one)
	}
	two := Followers("a", peers, 2)
	if len(two) != 2 || two[0].Name != one[0].Name {
		t.Fatalf("factor 2 must extend factor 1's choice: %v then %v", one, two)
	}
	// Deterministic: same inputs, same placement, any peer order.
	rev := []Peer{{Name: "d"}, {Name: "c"}, {Name: "b"}, {Name: "a"}}
	if got := Followers("a", rev, 2); got[0].Name != two[0].Name || got[1].Name != two[1].Name {
		t.Fatalf("placement depends on peer order: %v vs %v", got, two)
	}
	// Factor capped at the peer count, self excluded.
	all := Followers("a", peers, 10)
	if len(all) != 3 {
		t.Fatalf("want 3 followers for 4 peers minus self, got %v", all)
	}
	for _, p := range all {
		if p.Name == "a" {
			t.Fatal("self placed as its own follower")
		}
	}
	// Every primary gets a follower set; loads differ by primary.
	seen := make(map[string]bool)
	for _, self := range []string{"a", "b", "c", "d"} {
		f := Followers(self, peers, 1)
		if len(f) != 1 {
			t.Fatalf("primary %s got %v", self, f)
		}
		seen[f[0].Name] = true
	}
	if len(seen) < 2 {
		t.Fatalf("rendezvous placement parked every primary on one follower: %v", seen)
	}
}

func TestIngestOffsetProtocol(t *testing.T) {
	s, err := New(Options{Self: "b", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if size, err := s.Ingest("a", 1, 0, 0, []byte("hello ")); err != nil || size != 6 {
		t.Fatalf("first chunk: size=%d err=%v", size, err)
	}
	// Wrong offset (replayed chunk): rejected with the current size.
	_, err = s.Ingest("a", 1, 0, 0, []byte("hello "))
	var oe *OffsetError
	if !errors.As(err, &oe) || oe.Size != 6 {
		t.Fatalf("replayed chunk: err=%v", err)
	}
	// Gap (future offset): also rejected with the current size.
	if _, err := s.Ingest("a", 1, 99, 0, []byte("x")); !errors.As(err, &oe) || oe.Size != 6 {
		t.Fatalf("gap chunk: err=%v", err)
	}
	if size, err := s.Ingest("a", 1, 6, 0, []byte("world\n")); err != nil || size != 12 {
		t.Fatalf("resume chunk: size=%d err=%v", size, err)
	}
	data, err := os.ReadFile(filepath.Join(s.opts.Dir, "a", "wal-000001.jsonl"))
	if err != nil || string(data) != "hello world\n" {
		t.Fatalf("replica content %q, err %v", data, err)
	}

	if _, err := s.Ingest("a", 0, 0, 0, []byte("x")); err == nil {
		t.Fatal("segment 0 accepted")
	}
	if _, err := s.Ingest("../evil", 1, 0, 0, []byte("x")); err == nil {
		t.Fatal("path-escaping primary name accepted")
	}
}

func TestIngestPruneBelowMin(t *testing.T) {
	s, err := New(Options{Self: "b", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seg := uint64(1); seg <= 3; seg++ {
		if _, err := s.Ingest("a", seg, 0, 0, []byte("data\n")); err != nil {
			t.Fatal(err)
		}
	}
	// A chunk carrying min=3 prunes replica segments 1 and 2.
	if _, err := s.Ingest("a", 3, 5, 3, []byte("more\n")); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if len(st.Primaries) != 1 {
		t.Fatalf("primaries: %+v", st.Primaries)
	}
	segs := st.Primaries[0].Segments
	if len(segs) != 1 || segs[0].Index != 3 || segs[0].Bytes != 10 {
		t.Fatalf("after prune: %+v", segs)
	}
}

func TestPromoteFencesIngest(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Self: "b", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Promote("ghost"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("promoting an unheld primary: %v", err)
	}
	if _, err := s.Ingest("a", 1, 0, 0, []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	pdir, err := s.Promote("a")
	if err != nil || pdir != filepath.Join(dir, "a") {
		t.Fatalf("promote: dir=%q err=%v", pdir, err)
	}
	// Idempotent; further ingest is fenced.
	if again, err := s.Promote("a"); err != nil || again != pdir {
		t.Fatalf("re-promote: dir=%q err=%v", again, err)
	}
	if _, err := s.Ingest("a", 1, 2, 0, []byte("y\n")); !errors.Is(err, ErrFenced) {
		t.Fatalf("ingest after promote: %v", err)
	}
	if err := s.IngestSnapshot("a", "", []byte("{}")); !errors.Is(err, ErrFenced) {
		t.Fatalf("snapshot after promote: %v", err)
	}
	if got := s.Stats().Promotions; got != 1 {
		t.Fatalf("promotions counter %d, want 1", got)
	}
}

func TestRestartAdoptsReplicaDirs(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Self: "b", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Ingest("a", 1, 0, 0, []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	snap := []byte(`{"fence":1}`)
	if err := s1.IngestSnapshot("a", store.HashHex(snap), snap); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := New(Options{Self: "b", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Status()
	if len(st.Primaries) != 1 || st.Primaries[0].Primary != "a" {
		t.Fatalf("restart lost the replica: %+v", st.Primaries)
	}
	// The adopted snapshot hash must reflect the on-disk content, so the
	// shipper's first status fetch does not re-ship an unchanged snapshot.
	if st.Primaries[0].SnapshotHash != store.HashHex(snap) {
		t.Fatalf("adopted snapshot hash %q", st.Primaries[0].SnapshotHash)
	}
}

// TestNegativeOptionsRefused: a negative Factor would ship to one follower
// and a negative Interval poll every 500 ms, each without a word; New
// refuses each, naming it.
func TestNegativeOptionsRefused(t *testing.T) {
	for _, tt := range []struct {
		name string
		opts Options
	}{
		{"Factor", Options{Self: "a", Factor: -1}},
		{"Interval", Options{Self: "a", Interval: -time.Second}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s, err := New(tt.opts)
			if err == nil {
				s.Close()
				t.Fatalf("New accepted a negative %s", tt.name)
			}
			if !strings.Contains(err.Error(), tt.name) {
				t.Fatalf("refusal %q does not name %s", err, tt.name)
			}
		})
	}
}

// TestReadBody: a body is read whole or not at all, whether or not its
// length was declared.
func TestReadBody(t *testing.T) {
	const limit = 16
	for _, c := range []struct {
		name     string
		sent     int
		declared int64 // -1: chunked, no Content-Length
		ok       bool
	}{
		{"declared, at the limit", limit, limit, true},
		{"declared, over it", limit + 1, limit + 1, false},
		{"undeclared, at the limit", limit, -1, true},
		{"undeclared, over it", limit + 1, -1, false},
		{"declared longer than sent", 4, 8, false},
		{"empty", 0, 0, true},
	} {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(strings.Repeat("x", c.sent)))
		req.ContentLength = c.declared
		data, err := readBody(req, limit)
		if (err == nil) != c.ok || (c.ok && len(data) != c.sent) {
			t.Errorf("%s: %d bytes, err %v", c.name, len(data), err)
		}
	}
}
