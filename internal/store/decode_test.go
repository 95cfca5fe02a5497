package store

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"relm/internal/bo"
	"relm/internal/conf"
	"relm/internal/profile"
)

// refusedLines are lines the fast path must hand to json.Unmarshal, one
// per way a line can leave json.Marshal's layout of an observe, close or
// local harvest record. The checked-in FuzzDecodeEvent corpus holds each.
var refusedLines = map[string]string{
	"leading-space":      ` {"seq":4,"type":"close","id":"s","time":"2023-11-14T22:13:23Z"}`,
	"inner-space":        `{"seq": 4,"type":"close","id":"s","time":"2023-11-14T22:13:23Z"}`,
	"escape":             `{"seq":4,"type":"close","id":"s\u0031","time":"2023-11-14T22:13:23Z"}`,
	"control-byte":       "{\"seq\":4,\"type\":\"close\",\"id\":\"s\t1\",\"time\":\"2023-11-14T22:13:23Z\"}",
	"non-ascii":          `{"seq":4,"type":"close","id":"sé","time":"2023-11-14T22:13:23Z"}`,
	"key-order":          `{"type":"close","seq":4,"id":"s","time":"2023-11-14T22:13:23Z"}`,
	"key-case":           `{"Seq":4,"type":"close","id":"s","time":"2023-11-14T22:13:23Z"}`,
	"duplicate-key":      `{"seq":4,"seq":5,"type":"close","id":"s","time":"2023-11-14T22:13:23Z"}`,
	"unknown-key":        `{"seq":3,"type":"observe","id":"s","time":"2023-11-14T22:13:22Z","n":2,"obs":{"config":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":0.6,"ShuffleCapacity":0,"NewRatio":2,"SurvivorRatio":8},"runtime_sec":600,"suggested":true}}`,
	"null":               `{"seq":3,"type":"observe","id":"s","time":"2023-11-14T22:13:22Z","obs":null}`,
	"warm":               `{"seq":3,"type":"observe","id":"s","time":"2023-11-14T22:13:22Z","obs":{"config":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":0.6,"ShuffleCapacity":0,"NewRatio":2,"SurvivorRatio":8},"runtime_sec":600},"warm":{"source":"K-means","cluster":"A","distance":0.5,"points":null}}`,
	"repo":               `{"seq":9,"type":"harvest","id":"import-1","time":"2023-11-14T22:13:22Z","repo":{}}`,
	"session":            `{"seq":1,"type":"create","id":"s","time":"2023-11-14T22:13:20Z","session":{"id":"s","spec":{},"state":"running","created":"2023-11-14T22:13:20Z","last_used":"2023-11-14T22:13:20Z"}}`,
	"spec":               `{"seq":1,"type":"create","id":"s","time":"2023-11-14T22:13:20Z","spec":{"backend":"bo"}}`,
	"trailing-byte":      `{"seq":4,"type":"close","id":"s","time":"2023-11-14T22:13:23Z"}x`,
	"plus-sign":          observeRuntime("+1"),
	"leading-zero":       observeRuntime("01"),
	"bare-point":         observeRuntime("1."),
	"leading-point":      observeRuntime(".5"),
	"bare-exponent":      observeRuntime("1e"),
	"bare-minus":         observeRuntime("-"),
	"old-suggest":        `{"seq":2,"type":"suggest","id":"donor","time":"2026-01-01T00:00:02Z"}`,
	"fraction-for-int":   `{"seq":3,"type":"observe","time":"2023-11-14T22:13:23Z","n":1.0}`,
	"bad-time":           `{"seq":4,"type":"close","id":"s","time":"2023-11-14 22:13:23"}`,
	"float-out-of-range": `{"seq":3,"type":"observe","time":"2023-11-14T22:13:23Z","obs":{"config":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":1e400,"ShuffleCapacity":0,"NewRatio":2,"SurvivorRatio":8},"runtime_sec":600}}`,
}

// observeRuntime is an observe record whose runtime_sec is tok: a float
// field, which strconv.ParseFloat would parse for several tokens JSON's
// grammar refuses.
func observeRuntime(tok string) string {
	return `{"seq":3,"type":"observe","time":"2023-11-14T22:13:23Z","obs":{"config":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":0.6,"ShuffleCapacity":0,"NewRatio":2,"SurvivorRatio":8},"runtime_sec":` + tok + `}}`
}

// TestFastPathLayout pins the fast path to json.Marshal's layout: its field
// tables name every JSON key of Observation, conf.Config and profile.Stats,
// and of Event all but the keys left to json.Unmarshal, in declaration
// order; every observe, close and local harvest record json.Marshal writes
// — each optional field on and off — takes it and decodes as
// json.Unmarshal does; and a create, an old suggest, an observe with a warm
// start, an import's harvest and every refused line fall back and answer
// as json.Unmarshal does. A field added to one of those types fails here
// instead of sending every record to the slow path.
func TestFastPathLayout(t *testing.T) {
	keys := func(typ reflect.Type, skip ...string) []string {
		var out []string
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			if !slices.Contains(skip, name) {
				out = append(out, name)
			}
		}
		return out
	}
	for _, c := range []struct {
		want, have []string
	}{
		{keys(reflect.TypeFor[Event](), "session", "spec", "warm", "repo"), keysOf(eventFields)},
		{keys(reflect.TypeFor[Observation]()), keysOf(obsFields)},
		{keys(reflect.TypeFor[conf.Config]()), keysOf(configFields)},
		{keys(reflect.TypeFor[profile.Stats]()), keysOf(statsFields)},
	} {
		if !slices.Equal(c.have, c.want) {
			t.Errorf("the fast path reads %v, json.Marshal writes %v", c.have, c.want)
		}
	}

	at := time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	full := func() *Event {
		return &Event{Seq: 12, Type: EventObserve, ID: "sess-3", Time: at, N: 4, Obs: &Observation{
			Config:     conf.Config{ContainersPerNode: 2, TaskConcurrency: 3, CacheCapacity: 0.65, ShuffleCapacity: 0.1, NewRatio: 7, SurvivorRatio: 8},
			RuntimeSec: 737.25, Aborted: true, GCOverhead: 0.125,
			Stats: &profile.Stats{N: 2, MhMB: 2202, CPUAvg: 0.375, DiskAvg: 0.067, MiMB: 96.9, McMB: 1258.94, MsMB: 7.2, MuMB: 353.3, P: 2, H: 0.83, S: 0.01, HadFullGC: true, CoresPerNode: 8},
		}}
	}
	with := func(edit func(*Event)) *Event { ev := full(); edit(ev); return ev }
	cases := []struct {
		name string
		ev   *Event
		fast bool
	}{
		{"observe/all-on", full(), true},
		{"observe/n=0", with(func(e *Event) { e.N = 0 }), true},
		{"observe/not-aborted", with(func(e *Event) { e.Obs.Aborted = false }), true},
		{"observe/no-gc-overhead", with(func(e *Event) { e.Obs.GCOverhead = 0 }), true},
		{"observe/no-stats", with(func(e *Event) { e.Obs.Stats = nil }), true},
		{"observe/zero-stats", with(func(e *Event) { e.Obs.Stats = &profile.Stats{} }), true},
		{"observe/no-id", with(func(e *Event) { e.ID = "" }), true},
		{"observe/all-off", &Event{Seq: 1, Type: EventObserve, Obs: &Observation{}}, true},
		{"observe/negative", with(func(e *Event) { e.Obs.RuntimeSec, e.Obs.Stats.N, e.N = -1.5e-7, -3, -1 }), true},
		{"close", &Event{Seq: 13, Type: EventClose, ID: "sess-3", Time: at}, true},
		{"harvest/local", &Event{Seq: 14, Type: EventHarvest, ID: "sess-3", Time: at}, true},
		{"create", &Event{Seq: 1, Type: EventCreate, ID: "sess-3", Time: at, Session: &SessionSnapshot{ID: "sess-3", State: "active", Created: at}}, false},
		{"suggest/old", &Event{Seq: 2, Type: "suggest", ID: "sess-3", Time: at}, false},
		{"observe/warm", with(func(e *Event) { e.Warm = &Warm{Source: "K-means", Cluster: "A", Distance: 0.5} }), false},
		{"harvest/import", &Event{Seq: 15, Type: EventHarvest, ID: "import-1", Time: at, Repo: &bo.RepoEntry{Workload: "K-means"}}, false},
	}
	for _, c := range cases {
		line, err := json.Marshal(c.ev)
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, c.name, line, c.fast)
	}
	for name, line := range refusedLines {
		checkDecode(t, name, []byte(line), false)
	}
}

func keysOf[T any](fields []field[T]) []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = f.key
	}
	return out
}

// checkDecode fails t unless the fast path takes line exactly when fast
// says, and decodeEvent answers as json.Unmarshal does.
func checkDecode(t *testing.T, name string, line []byte, fast bool) {
	t.Helper()
	var got, want Event
	if took := fastEvent(line, &got); took != fast {
		t.Errorf("%s: fast path took it %v, want %v: %s", name, took, fast, line)
	}
	err := decodeEvent(line, &got)
	wantErr := json.Unmarshal(line, &want)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decodeEvent gave %+v, %v; json.Unmarshal %+v, %v", name, got, err, want, wantErr)
	}
}

// FuzzDecodeEvent: whatever bytes the fast path accepts, json.Unmarshal
// accepts too and decodes to the same Event. The checked-in corpus under
// testdata/fuzz/FuzzDecodeEvent holds the lines of
// testdata/torn-segment.jsonl and of the service's create-records.jsonl, a
// real observe with stats, and each of refusedLines.
func FuzzDecodeEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast Event
		if !fastEvent(data, &fast) {
			return
		}
		var ref Event
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("fast path accepted what json.Unmarshal refuses (%v): %q", err, data)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast path decoded %+v, json.Unmarshal %+v: %q", fast, ref, data)
		}
	})
}
