package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
// per way a line can leave json.Marshal's layout of a record. The
// checked-in FuzzDecodeEvent corpus holds each.
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
	"trailing-byte":      `{"seq":4,"type":"close","id":"s","time":"2023-11-14T22:13:23Z"}x`,
	"plus-sign":          observeRuntime("+1"),
	"leading-zero":       observeRuntime("01"),
	"bare-point":         observeRuntime("1."),
	"leading-point":      observeRuntime(".5"),
	"bare-exponent":      observeRuntime("1e"),
	"bare-minus":         observeRuntime("-"),
	"fraction-for-int":   `{"seq":3,"type":"observe","time":"2023-11-14T22:13:23Z","n":1.0}`,
	"bad-time":           `{"seq":4,"type":"close","id":"s","time":"2023-11-14 22:13:23"}`,
	"float-out-of-range": `{"seq":3,"type":"observe","time":"2023-11-14T22:13:23Z","obs":{"config":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":1e400,"ShuffleCapacity":0,"NewRatio":2,"SurvivorRatio":8},"runtime_sec":600}}`,
	"old-surrogate":      `{"seq":1,"type":"create","id":"s","time":"2023-11-14T22:13:20Z","session":{"id":"s","spec":{"backend":"bo","surrogate":{"kernel":"rbf"}},"state":"active","created":"2023-11-14T22:13:20Z","last_used":"2023-11-14T22:13:20Z"}}`,
	"null-stats":         `{"seq":1,"type":"create","id":"s","time":"2023-11-14T22:13:20Z","spec":{"backend":"bo","stats":null}}`,
	"warm-escape":        `{"seq":3,"type":"observe","id":"s","time":"2023-11-14T22:13:22Z","warm":{"source":"K\u002dmeans","cluster":"A","distance":0.5,"points":null}}`,
	"point-space":        `{"seq":3,"type":"observe","id":"s","time":"2023-11-14T22:13:22Z","warm":{"source":"K-means","cluster":"A","distance":0.5,"points":[{"X":[0.5, 1],"Cfg":{},"Y":3}]}}`,
}

// takenLines are lines json.Marshal writes that an earlier reader left to
// json.Unmarshal and this one takes: an old suggest record, an observe
// with a warm start, an import's harvest, a create and an old create. The
// checked-in FuzzDecodeEvent corpus holds each, under refused-<name>.
var takenLines = map[string]string{
	"old-suggest": `{"seq":2,"type":"suggest","id":"donor","time":"2026-01-01T00:00:02Z"}`,
	"warm":        `{"seq":3,"type":"observe","id":"s","time":"2023-11-14T22:13:22Z","obs":{"config":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":0.6,"ShuffleCapacity":0,"NewRatio":2,"SurvivorRatio":8},"runtime_sec":600},"warm":{"source":"K-means","cluster":"A","distance":0.5,"points":null}}`,
	"repo":        `{"seq":9,"type":"harvest","id":"import-1","time":"2023-11-14T22:13:22Z","repo":{}}`,
	"session":     `{"seq":1,"type":"create","id":"s","time":"2023-11-14T22:13:20Z","session":{"id":"s","spec":{},"state":"running","created":"2023-11-14T22:13:20Z","last_used":"2023-11-14T22:13:20Z"}}`,
	"spec":        `{"seq":1,"type":"create","id":"s","time":"2023-11-14T22:13:20Z","spec":{"backend":"bo"}}`,
}

// observeRuntime is an observe record whose runtime_sec is tok: a float
// field, which strconv.ParseFloat would parse for several tokens JSON's
// grammar refuses.
func observeRuntime(tok string) string {
	return `{"seq":3,"type":"observe","time":"2023-11-14T22:13:23Z","obs":{"config":{"ContainersPerNode":1,"TaskConcurrency":2,"CacheCapacity":0.6,"ShuffleCapacity":0,"NewRatio":2,"SurvivorRatio":8},"runtime_sec":` + tok + `}}`
}

// TestFastPathLayout pins the reader to json.Marshal's layout. The object
// compiled for each type a record or snapshot holds — the layouts of Event
// and Snapshot are made of these — names every key json.Marshal writes for
// it, in the order it writes them. Every Event and Snapshot json.Marshal
// writes takes the fast path and decodes as json.Unmarshal does: one with
// every field set, the same with each field in turn set to its zero value
// (an omitempty or omitzero key left out, a nil slice written null), and
// the cold, warm and adopted create records a node journals. An old
// build's indented snapshot (its history records carry "suggested"),
// reordered keys, an escape and every refused line fall back and answer
// as json.Unmarshal does. A field added to one of those types fails here
// instead of sending every record to the slow path.
func TestFastPathLayout(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[Event](), reflect.TypeFor[Observation](), reflect.TypeFor[conf.Config](),
		reflect.TypeFor[profile.Stats](), reflect.TypeFor[SessionSnapshot](), reflect.TypeFor[SessionSpec](),
		reflect.TypeFor[Warm](), reflect.TypeFor[bo.PriorPoint](), reflect.TypeFor[HistoryRecord](),
		reflect.TypeFor[Snapshot](), reflect.TypeFor[bo.Repository](), reflect.TypeFor[bo.RepoEntry](),
	} {
		var have []string
		for _, f := range compile(typ).fields {
			have = append(have, strings.TrimSuffix(strings.Trim(f.lit, `"`), `":`))
		}
		if want := marshaledKeys(t, typ); !slices.Equal(have, want) {
			t.Errorf("%v: the reader reads %v, json.Marshal writes %v", typ, have, want)
		}
	}

	eachZeroed(t, "event", func() *Event { return filled[Event]() }, eventLayout)
	eachZeroed(t, "snapshot", func() *Snapshot { return filled[Snapshot]() }, snapshotLayout)

	at := time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	stats := &profile.Stats{N: 2, MhMB: 2202, CPUAvg: 0.37500000000000017, DiskAvg: 0.067, MiMB: 96.9, McMB: 1258.94, MsMB: 7.2, MuMB: 353.3, P: 2, H: 0.83, HadFullGC: true, CoresPerNode: 8}
	cfg := conf.Config{ContainersPerNode: 2, TaskConcurrency: 3, CacheCapacity: 0.6513305230104615, ShuffleCapacity: 0.1, NewRatio: 7, SurvivorRatio: 8}
	create := func(ss SessionSnapshot) *Event {
		ss.ID, ss.State, ss.Created, ss.LastUsed = "sess-3", "active", at, at
		return &Event{Seq: 1, Type: EventCreate, ID: "sess-3", Time: at, Session: &ss}
	}
	records := map[string]*Event{
		"create/cold": create(SessionSnapshot{Spec: SessionSpec{Backend: "bo", Workload: "K-means", Seed: 7}}),
		"create/warm": create(SessionSnapshot{
			Spec: SessionSpec{Backend: "gbo", Workload: "SVM", WarmStart: true, Stats: stats, DefaultRuntimeSec: 737.25},
			Warm: &Warm{Source: "K-means", Cluster: "A", Distance: 0.0625, Points: []bo.PriorPoint{
				{X: []float64{0.5, 1.0 / 3, -2e-9, 1e22, 1e23, 1e-22, 1e-23, 5e-324, math.MaxFloat64, 9007199254740993}, Cfg: cfg, Y: 1.0 / 7},
				{X: []float64{}, Y: 12},
			}},
		}),
		"create/adopted": create(SessionSnapshot{
			Spec:      SessionSpec{Backend: "relm", Mode: "auto", MaxIterations: 9, MaxSteps: 4, WarmMaxDistance: 0.3},
			Harvested: true,
			History: []HistoryRecord{
				{Observation: Observation{Config: cfg, RuntimeSec: 1186.799037576848, Aborted: true, GCOverhead: 0.09803174895568123, Stats: stats}, Objective: 2373.6},
				{Observation: Observation{Config: conf.Default(), RuntimeSec: 600}, Objective: 600},
			},
		}),
		"observe/empty-points": {Seq: 3, Type: EventObserve, ID: "sess-3", Time: at, Obs: &Observation{Config: cfg}, Warm: &Warm{Points: []bo.PriorPoint{}}},
	}
	for name, ev := range records {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, name, line, eventLayout, true)
	}
	for name, line := range takenLines {
		checkDecode(t, name, []byte(line), eventLayout, true)
	}
	for name, line := range refusedLines {
		checkDecode(t, name, []byte(line), eventLayout, false)
	}

	indented, err := os.ReadFile(filepath.Join("..", "service", "testdata", "snapshot-indented.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkDecode(t, "snapshot/indented", indented, snapshotLayout, false)
	var snap Snapshot
	if err := json.Unmarshal(indented, &snap); err != nil {
		t.Fatal(err)
	}
	current, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	checkDecode(t, "snapshot/rewritten", current, snapshotLayout, true)
	for name, edit := range map[string][2]string{
		"snapshot/key-order": {`"taken_at":"2026-10-04T06:56:52.284023218Z","fence":28,`, `"fence":28,"taken_at":"2026-10-04T06:56:52.284023218Z",`},
		"snapshot/escape":    {`"id":"sess-1"`, `"id":"sess\u002d1"`},
		"snapshot/repo-case": {`"Entries":`, `"entries":`},
	} {
		line := strings.Replace(string(current), edit[0], edit[1], 1)
		if line == string(current) {
			t.Fatalf("%s: %q is not in the rewritten snapshot", name, edit[0])
		}
		checkDecode(t, name, []byte(line), snapshotLayout, false)
	}
}

// marshaledKeys is the keys json.Marshal writes, in order, for a value of
// typ with every field set.
func marshaledKeys(t *testing.T, typ reflect.Type) []string {
	v := reflect.New(typ)
	fill(v.Elem(), new(int))
	buf, err := json.Marshal(v.Interface())
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	var keys []string
	for _, err = dec.Token(); err == nil && dec.More(); {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// filled is a T with every exported field set (see fill).
func filled[T any]() *T {
	v := new(T)
	fill(reflect.ValueOf(v).Elem(), new(int))
	return v
}

// fill sets every exported field reachable from v to something other than
// its zero value, slices to two elements, numbers to values on both sides
// of the reader's exact-float rule; *n numbers what it has set.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s-%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * -3)
	case reflect.Uint64:
		v.SetUint(uint64(*n) * 1e12)
	case reflect.Float64:
		if *n%2 == 0 {
			v.SetFloat(float64(*n) / 8)
		} else {
			v.SetFloat(float64(*n) / 7 * 1e5)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.Struct:
		if v.Type() == timeType {
			v.Set(reflect.ValueOf(time.Date(2026, 1, 2, 3, 4, *n%60, *n*1000, time.UTC)))
			return
		}
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	}
}

// eachZeroed checks that json.Marshal of full() takes the fast path, and
// so does each variant of it with one field, in turn, set to its zero
// value.
func eachZeroed[T any](t *testing.T, name string, full func() *T, l layout[T]) {
	for k := 0; ; k++ {
		v, i, path := full(), 0, ""
		walk(reflect.ValueOf(v).Elem(), "", func(f reflect.Value, p string) {
			if i == k {
				f.SetZero()
				path = p
			}
			i++
		})
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 && path == "" {
			return
		}
		checkDecode(t, name+path, line, l, true)
	}
}

// walk calls f on every exported field reachable from v, depth first,
// each before what it holds.
func walk(v reflect.Value, path string, f func(reflect.Value, string)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			walk(v.Elem(), path, f)
		}
	case reflect.Slice:
		for i := range v.Len() {
			walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	case reflect.Struct:
		if v.Type() == timeType {
			return
		}
		for i := range v.NumField() {
			if sf := v.Type().Field(i); sf.IsExported() {
				p := path + "." + sf.Name
				f(v.Field(i), p)
				walk(v.Field(i), p, f)
			}
		}
	}
}

// checkDecode fails t unless the fast path takes buf exactly when fast
// says, and decode answers as json.Unmarshal does.
func checkDecode[T any](t *testing.T, name string, buf []byte, l layout[T], fast bool) {
	t.Helper()
	var got, want T
	if took := fastPath(buf, &got, l); took != fast {
		t.Errorf("%s: fast path took it %v, want %v: %s", name, took, fast, buf)
	}
	err := decode(buf, &got, l)
	wantErr := json.Unmarshal(buf, &want)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decode gave %+v, %v; json.Unmarshal %+v, %v", name, got, err, want, wantErr)
	}
}

// FuzzDecodeEvent: whatever bytes the fast path accepts, json.Unmarshal
// accepts too and decodes to the same Event. The checked-in corpus under
// testdata/fuzz/FuzzDecodeEvent holds the lines of
// testdata/torn-segment.jsonl and of the service's create-records*.jsonl
// (a rejournaled line only where it differs), a real observe with stats,
// and each of refusedLines and takenLines.
func FuzzDecodeEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { sameAsUnmarshal(t, data, eventLayout) })
}

// FuzzDecodeSnapshot holds FuzzDecodeEvent's contract for snapshot.json.
// The checked-in corpus under testdata/fuzz/FuzzDecodeSnapshot holds the
// service's snapshot-indented.json, indented and compacted, and a snapshot
// with every field set.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { sameAsUnmarshal(t, data, snapshotLayout) })
}

func sameAsUnmarshal[T any](t *testing.T, data []byte, l layout[T]) {
	var fast, ref T
	if !fastPath(data, &fast, l) {
		return
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("fast path accepted what json.Unmarshal refuses (%v): %q", err, data)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("fast path decoded %+v, json.Unmarshal %+v: %q", fast, ref, data)
	}
}
