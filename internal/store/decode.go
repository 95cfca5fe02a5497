package store

import (
	"encoding/json"
	"strconv"

	"relm/internal/conf"
	"relm/internal/profile"
)

// decodeEvent decodes one log line into ev, which it zeroes first: it
// yields what json.Unmarshal(line, ev) yields on a zero ev, Event and error
// alike. The lines recovery reads most — observe, close and local harvest
// records — are read in the exact layout json.Marshal writes them, without
// reflection; every other line (a create, an old log's record, whitespace
// inside the object, an escape or non-ASCII byte in a string, another key
// order, null, …) goes to json.Unmarshal at the first byte that differs.
// The writer is json.Marshal and stays so.
func decodeEvent(line []byte, ev *Event) error {
	if fastEvent(line, ev) {
		return nil
	}
	*ev = Event{}
	return json.Unmarshal(line, ev)
}

// fastEvent reads line into ev if it is in the layout json.Marshal gives
// an observe, close or local harvest record, and reports whether it was.
// Every value goes through the call encoding/json makes for it, so an
// accepted line decodes as json.Unmarshal decodes it.
func fastEvent(line []byte, ev *Event) bool {
	*ev = Event{}
	r := reader{buf: line}
	return readObject(&r, ev, eventFields) && r.trailer()
}

// field is one key of an object in json.Marshal's layout and the reader of
// its value.
type field[T any] struct {
	key  string
	read func(r *reader, v *T) bool
}

// The fields of each object in the order json.Marshal writes them. A key
// may be left out (omitempty) but not repeated or reordered; a key absent
// from the table — Event's session, spec, warm and repo among them — sends
// the line to json.Unmarshal.
var (
	eventFields = []field[Event]{
		{"seq", func(r *reader, e *Event) bool { return r.uint(&e.Seq) }},
		{"type", func(r *reader, e *Event) bool { return r.eventType(&e.Type) }},
		{"id", func(r *reader, e *Event) bool { return r.str(&e.ID) }},
		{"time", func(r *reader, e *Event) bool {
			s, ok := r.quoted()
			return ok && e.Time.UnmarshalJSON(s) == nil
		}},
		{"n", func(r *reader, e *Event) bool { return r.int(&e.N) }},
		{"obs", func(r *reader, e *Event) bool {
			e.Obs = new(Observation)
			return readObject(r, e.Obs, obsFields)
		}},
	}
	obsFields = []field[Observation]{
		{"config", func(r *reader, o *Observation) bool { return readObject(r, &o.Config, configFields) }},
		{"runtime_sec", func(r *reader, o *Observation) bool { return r.float(&o.RuntimeSec) }},
		{"aborted", func(r *reader, o *Observation) bool { return r.bool(&o.Aborted) }},
		{"gc_overhead", func(r *reader, o *Observation) bool { return r.float(&o.GCOverhead) }},
		{"stats", func(r *reader, o *Observation) bool {
			o.Stats = new(profile.Stats)
			return readObject(r, o.Stats, statsFields)
		}},
	}
	configFields = []field[conf.Config]{
		{"ContainersPerNode", func(r *reader, c *conf.Config) bool { return r.int(&c.ContainersPerNode) }},
		{"TaskConcurrency", func(r *reader, c *conf.Config) bool { return r.int(&c.TaskConcurrency) }},
		{"CacheCapacity", func(r *reader, c *conf.Config) bool { return r.float(&c.CacheCapacity) }},
		{"ShuffleCapacity", func(r *reader, c *conf.Config) bool { return r.float(&c.ShuffleCapacity) }},
		{"NewRatio", func(r *reader, c *conf.Config) bool { return r.int(&c.NewRatio) }},
		{"SurvivorRatio", func(r *reader, c *conf.Config) bool { return r.int(&c.SurvivorRatio) }},
	}
	statsFields = []field[profile.Stats]{
		{"N", func(r *reader, s *profile.Stats) bool { return r.int(&s.N) }},
		{"MhMB", func(r *reader, s *profile.Stats) bool { return r.float(&s.MhMB) }},
		{"CPUAvg", func(r *reader, s *profile.Stats) bool { return r.float(&s.CPUAvg) }},
		{"DiskAvg", func(r *reader, s *profile.Stats) bool { return r.float(&s.DiskAvg) }},
		{"MiMB", func(r *reader, s *profile.Stats) bool { return r.float(&s.MiMB) }},
		{"McMB", func(r *reader, s *profile.Stats) bool { return r.float(&s.McMB) }},
		{"MsMB", func(r *reader, s *profile.Stats) bool { return r.float(&s.MsMB) }},
		{"MuMB", func(r *reader, s *profile.Stats) bool { return r.float(&s.MuMB) }},
		{"P", func(r *reader, s *profile.Stats) bool { return r.int(&s.P) }},
		{"H", func(r *reader, s *profile.Stats) bool { return r.float(&s.H) }},
		{"S", func(r *reader, s *profile.Stats) bool { return r.float(&s.S) }},
		{"HadFullGC", func(r *reader, s *profile.Stats) bool { return r.bool(&s.HadFullGC) }},
		{"CoresPerNode", func(r *reader, s *profile.Stats) bool { return r.int(&s.CoresPerNode) }},
	}
)

// fastTypes are the record types read without reflection, quoted. An old
// log's suggest record has a close's layout but is left to json.Unmarshal.
var fastTypes = [...]string{`"` + EventObserve + `"`, `"` + EventClose + `"`, `"` + EventHarvest + `"`}

// readObject reads a non-empty object whose keys are fields' keys in the
// table's order, each at most once, with no white space anywhere.
func readObject[T any](r *reader, v *T, fields []field[T]) bool {
	if !r.skip('{') {
		return false
	}
	for i := 0; ; i++ {
		key, ok := r.quoted()
		if !ok || !r.skip(':') {
			return false
		}
		for i < len(fields) && string(key[1:len(key)-1]) != fields[i].key {
			i++
		}
		if i == len(fields) || !fields[i].read(r, v) {
			return false
		}
		if r.skip('}') {
			return true
		}
		if !r.skip(',') {
			return false
		}
	}
}

// reader walks one line; pos is the next byte to read.
type reader struct {
	buf []byte
	pos int
}

// skip consumes c if it is the next byte.
func (r *reader) skip(c byte) bool {
	if r.pos == len(r.buf) || r.buf[r.pos] != c {
		return false
	}
	r.pos++
	return true
}

// lit consumes s if the line continues with it.
func (r *reader) lit(s string) bool {
	if len(r.buf)-r.pos < len(s) || string(r.buf[r.pos:r.pos+len(s)]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// trailer reports whether nothing but JSON white space follows.
func (r *reader) trailer() bool {
	for _, c := range r.buf[r.pos:] {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// quoted reads a string of printable ASCII with no escape, quotes
// included: a string whose bytes are its value.
func (r *reader) quoted() ([]byte, bool) {
	start := r.pos
	if !r.skip('"') {
		return nil, false
	}
	for ; r.pos < len(r.buf); r.pos++ {
		switch c := r.buf[r.pos]; {
		case c == '"':
			r.pos++
			return r.buf[start:r.pos], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (r *reader) str(dst *string) bool {
	s, ok := r.quoted()
	if ok {
		*dst = string(s[1 : len(s)-1])
	}
	return ok
}

func (r *reader) eventType(dst *string) bool {
	for _, t := range fastTypes {
		if r.lit(t) {
			*dst = t[1 : len(t)-1]
			return true
		}
	}
	return false
}

func (r *reader) bool(dst *bool) bool {
	if r.lit("true") {
		*dst = true
		return true
	}
	return r.lit("false")
}

// number reads a token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, so that a token
// encoding/json would refuse (+1, 01, 1., .5, 1e, -) is never parsed.
func (r *reader) number() ([]byte, bool) {
	start := r.pos
	r.skip('-')
	if !r.skip('0') && !r.digits() {
		return nil, false
	}
	if r.skip('.') && !r.digits() {
		return nil, false
	}
	if r.skip('e') || r.skip('E') {
		_ = r.skip('+') || r.skip('-')
		if !r.digits() {
			return nil, false
		}
	}
	return r.buf[start:r.pos], true
}

// digits consumes a run of at least one decimal digit.
func (r *reader) digits() bool {
	start := r.pos
	for r.pos < len(r.buf) && '0' <= r.buf[r.pos] && r.buf[r.pos] <= '9' {
		r.pos++
	}
	return r.pos > start
}

func (r *reader) uint(dst *uint64) bool {
	tok, ok := r.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	*dst = n
	return err == nil
}

func (r *reader) int(dst *int) bool {
	tok, ok := r.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (r *reader) float(dst *float64) bool {
	tok, ok := r.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*dst = f
	return err == nil
}
