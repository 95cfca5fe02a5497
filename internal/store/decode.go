package store

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// decodeEvent decodes one log line into ev, which it zeroes first: it
// yields what json.Unmarshal(line, ev) yields on a zero ev, Event and error
// alike (see decode).
func decodeEvent(line []byte, ev *Event) error { return decode(line, ev, eventLayout) }

// decodeSnapshot decodes snapshot.json into snap as decodeEvent decodes a
// log line.
func decodeSnapshot(buf []byte, snap *Snapshot) error { return decode(buf, snap, snapshotLayout) }

// decode reads buf into v. Input in the exact layout json.Marshal writes a
// T — every record a current node writes and every snapshot.json it
// compacts — is read by the reader below, without encoding/json; anything
// else (an old log's record with a surrogate object, white space inside
// the object, an escape or non-ASCII byte in a string, another key order,
// an unexpected null, an indented snapshot, …) goes to json.Unmarshal at
// the first byte that differs. The writer is json.Marshal and stays so.
func decode[T any](buf []byte, v *T, l layout[T]) error {
	if fastPath(buf, v, l) {
		return nil
	}
	*v = *new(T)
	return json.Unmarshal(buf, v)
}

// fastPath zeroes v, reads buf into it if buf is in json.Marshal's layout
// of a T, and reports whether it was. Every value goes through the conversion
// encoding/json makes for it or one with the same result, so an accepted
// buf decodes as json.Unmarshal decodes it.
func fastPath[T any](buf []byte, v *T, l layout[T]) bool {
	*v = *new(T)
	r := reader{buf: buf}
	return r.object(l.obj, unsafe.Pointer(v)) && r.trailer()
}

// layout is the object compiled from T. Its type parameter ties it to the
// *T fastPath writes through: the reader's offsets are T's own.
type layout[T any] struct{ obj *object }

func layoutOf[T any]() layout[T] { return layout[T]{compile(reflect.TypeFor[T]())} }

var eventLayout, snapshotLayout = layoutOf[Event](), layoutOf[Snapshot]()

// object is a struct type's JSON keys in the order json.Marshal writes
// them, an embedded struct's in its place. A key may be left out
// (omitempty, omitzero) but not repeated or reordered; a key absent from
// it sends the line to json.Unmarshal.
type object struct{ fields []field }

// field is one key of an object and where its value goes.
type field struct {
	lit string  // the key as written, quoted, with its colon: "key":
	off uintptr // the value's offset in the struct
	value
}

// value says how to read one JSON value into the Go value it decodes to.
type value struct {
	kind kind
	typ  reflect.Type // kPtr: the pointed-to struct; kSlice: the slice
	obj  *object      // kStruct, kPtr
	elem *value       // kSlice
	size uintptr      // kSlice: the element's size
}

type kind uint8

const (
	kString kind = iota
	kBool
	kInt
	kInt64
	kUint64
	kFloat64
	kTime   // time.Time, through its UnmarshalJSON as encoding/json calls it
	kStruct // a struct held inline
	kPtr    // a pointer to a struct; never null (omitempty leaves it out)
	kSlice  // null for a nil slice, [] for an empty one
)

var (
	timeType        = reflect.TypeFor[time.Time]()
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// compile lays out struct type t. It panics on what it cannot read as
// encoding/json would — a custom unmarshaler, a ",string" option, an
// embedded pointer — so a field of such a type fails every test at start.
func compile(t reflect.Type) *object {
	o := &object{}
	for i := range t.NumField() {
		f := t.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case !f.IsExported() || name == "-" && opts == "":
			continue
		case strings.Contains(opts, "string"):
			panic("store: no layout for a ,string field: " + t.String() + "." + f.Name)
		case f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct:
			for _, g := range compile(f.Type).fields {
				g.off += f.Offset
				o.fields = append(o.fields, g)
			}
			continue
		case name == "":
			name = f.Name
		}
		o.fields = append(o.fields, field{lit: `"` + name + `":`, off: f.Offset, value: valueOf(f.Type)})
	}
	return o
}

func valueOf(t reflect.Type) value {
	if t == timeType {
		return value{kind: kTime}
	}
	if p := reflect.PointerTo(t); p.Implements(jsonUnmarshaler) || p.Implements(textUnmarshaler) {
		panic("store: no layout for a type with its own unmarshaler: " + t.String())
	}
	switch t.Kind() {
	case reflect.String:
		return value{kind: kString}
	case reflect.Bool:
		return value{kind: kBool}
	case reflect.Int:
		return value{kind: kInt}
	case reflect.Int64:
		return value{kind: kInt64}
	case reflect.Uint64:
		return value{kind: kUint64}
	case reflect.Float64:
		return value{kind: kFloat64}
	case reflect.Struct:
		return value{kind: kStruct, obj: compile(t)}
	case reflect.Pointer:
		if t.Elem().Kind() == reflect.Struct && t.Elem() != timeType {
			return value{kind: kPtr, typ: t.Elem(), obj: compile(t.Elem())}
		}
	case reflect.Slice:
		elem := valueOf(t.Elem())
		return value{kind: kSlice, typ: t, elem: &elem, size: t.Elem().Size()}
	}
	panic("store: no layout for " + t.String())
}

// reader walks one line; pos is the next byte to read.
type reader struct {
	buf []byte
	pos int
}

// object reads a struct at p: an object whose keys are o's in o's order,
// each at most once, with no white space anywhere.
func (r *reader) object(o *object, p unsafe.Pointer) bool {
	if !r.skip('{') {
		return false
	}
	if r.skip('}') {
		return true
	}
	fields := o.fields
	for {
		i := 0
		for i < len(fields) && !r.lit(fields[i].lit) {
			i++
		}
		if i == len(fields) || !r.value(&fields[i].value, unsafe.Add(p, fields[i].off)) {
			return false
		}
		fields = fields[i+1:]
		if r.skip('}') {
			return true
		}
		if !r.skip(',') {
			return false
		}
	}
}

// value reads one value of v's kind into the Go value at p.
func (r *reader) value(v *value, p unsafe.Pointer) bool {
	switch v.kind {
	case kString:
		return r.str((*string)(p))
	case kBool:
		return r.bool((*bool)(p))
	case kInt:
		n, ok := r.int()
		*(*int)(p) = int(n)
		return ok && int64(int(n)) == n
	case kInt64:
		n, ok := r.int()
		*(*int64)(p) = n
		return ok
	case kUint64:
		n, ok := r.uint()
		*(*uint64)(p) = n
		return ok
	case kFloat64:
		return r.float((*float64)(p))
	case kTime:
		s, ok := r.quoted()
		return ok && (*time.Time)(p).UnmarshalJSON(s) == nil
	case kStruct:
		return r.object(v.obj, p)
	case kPtr:
		q := reflect.New(v.typ).UnsafePointer()
		*(*unsafe.Pointer)(p) = q
		return r.object(v.obj, q)
	case kSlice:
		return r.slice(v, p)
	}
	return false
}

// slice reads null (a nil slice, as json.Marshal writes one) or an array
// into the slice at p, growing it as append does.
func (r *reader) slice(v *value, p unsafe.Pointer) bool {
	if r.lit("null") {
		return true
	}
	if !r.skip('[') {
		return false
	}
	if r.skip(']') {
		reflect.NewAt(v.typ, p).Elem().Set(reflect.MakeSlice(v.typ, 0, 0))
		return true
	}
	s := (*sliceHeader)(p)
	for {
		if s.len == s.cap {
			reflect.NewAt(v.typ, p).Elem().Grow(4) // zeroed past len, as a decoded element must start
		}
		s.len++
		if !r.value(v.elem, unsafe.Add(s.data, uintptr(s.len-1)*v.size)) {
			return false
		}
		if r.skip(']') {
			return true
		}
		if !r.skip(',') {
			return false
		}
	}
}

// sliceHeader is the runtime's layout of a slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
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

func (r *reader) bool(dst *bool) bool {
	if r.lit("true") {
		*dst = true
		return true
	}
	return r.lit("false")
}

// digits reads the integer part of a JSON number, 0|[1-9][0-9]*, and its
// value; nd is its number of digits, and the value is exact for nd ≤ 19.
// Whatever follows — a fraction or exponent where an integer is wanted, a
// digit after a leading 0 — is left for the caller's next read to refuse.
func (r *reader) digits() (u uint64, nd int) {
	if r.skip('0') {
		return 0, 1
	}
	return r.run(0)
}

// run reads a run of decimal digits onto u, u*10 + digit each, and returns
// u and the run's length.
func (r *reader) run(u uint64) (uint64, int) {
	buf, i := r.buf, r.pos
	for ; i < len(buf) && buf[i]-'0' < 10; i++ {
		u = u*10 + uint64(buf[i]-'0')
	}
	n := i - r.pos
	r.pos = i
	return u, n
}

// uint reads a non-negative integer as encoding/json reads it into a
// uint64.
func (r *reader) uint() (uint64, bool) {
	start := r.pos
	u, nd := r.digits()
	if nd > 19 {
		n, err := strconv.ParseUint(string(r.buf[start:r.pos]), 10, 64)
		return n, err == nil
	}
	return u, nd > 0
}

// int reads an integer as encoding/json reads it into an int64.
func (r *reader) int() (int64, bool) {
	start := r.pos
	neg := r.skip('-')
	u, nd := r.digits()
	switch {
	case nd > 18:
		n, err := strconv.ParseInt(string(r.buf[start:r.pos]), 10, 64)
		return n, err == nil
	case neg:
		return -int64(u), nd > 0
	}
	return int64(u), nd > 0
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float reads a token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, in one pass, so a token
// encoding/json would refuse (+1, 01, 1., .5, 1e, -) is never parsed. When
// its digits, as an integer, are at most 2^53 and its decimal exponent is
// within ±22, the value is one multiplication or division of two exact
// float64s, correctly rounded — which is what strconv.ParseFloat, the
// parser encoding/json uses, returns for it; any other token goes through
// strconv.ParseFloat itself.
func (r *reader) float(dst *float64) bool {
	start := r.pos
	neg := r.skip('-')
	mant, nd := r.digits()
	if nd == 0 {
		return false
	}
	exp := 0
	if r.skip('.') {
		var k int
		if mant, k = r.run(mant); k == 0 {
			return false
		}
		nd += k
		exp = -k
	}
	exact := nd <= 19
	if r.skip('e') || r.skip('E') {
		eneg := r.skip('-')
		if !eneg {
			r.skip('+')
		}
		e, k := r.run(0)
		switch {
		case k == 0:
			return false
		case k > 4:
			exact = false
		case eneg:
			exp -= int(e)
		default:
			exp += int(e)
		}
	}
	if !exact || mant > 1<<53 || exp < -22 || exp > 22 {
		f, err := strconv.ParseFloat(string(r.buf[start:r.pos]), 64)
		*dst = f
		return err == nil
	}
	f := float64(mant)
	if exp < 0 {
		f /= pow10[-exp]
	} else {
		f *= pow10[exp]
	}
	if neg {
		f = -f
	}
	*dst = f
	return true
}
