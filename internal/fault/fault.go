// Package fault is the deterministic fault-injection subsystem: a registry
// of named failpoints compiled into the hot paths of the store, replica,
// router, and service layers. A disarmed failpoint is a single atomic
// pointer load returning nil — zero allocations, no locks, cheap enough to
// leave in production builds (TestDisarmedAllocations holds it at 0
// allocs). An armed failpoint applies actions — return an injected
// error/ENOSPC, truncate a write (torn record), inject latency, stall,
// corrupt or drop bytes — according to a seeded schedule:
// each rule precomputes WHICH of its matched hits fire from a PCG stream
// derived from (schedule seed, failpoint name, rule index), so the same
// seed reproduces the same fault sequence, hit for hit, across runs and
// machines. That determinism is what makes a chaos soak replayable: the
// invariant checker can assert the injected-fault counts match the plan,
// and a failing run is re-entered from its seed alone.
//
// Schedules arrive as JSON (a -faults file at boot, or POST /v1/faults at
// runtime via Handler):
//
//	{
//	  "seed": 42,
//	  "rules": [
//	    {"point": "store.write", "action": "error", "count": 5, "window": 200},
//	    {"point": "router.proxy", "action": "latency", "arg": 50, "count": 10, "window": 400, "match": "node-b"}
//	  ]
//	}
//
// A rule fires on exactly count of the window matched hits starting after
// the first after hits; which ones is the seeded draw. count >= window
// makes the rule fire on every hit in the window (a deterministic burst).
// match filters by the site-supplied tag (e.g. the backend a proxy send
// targets), so partitions can single out one peer.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Action is what an armed failpoint does to its call site.
type Action uint8

const (
	// None is the zero Action; Eval never returns it.
	None Action = iota
	// Error makes the site fail with Fire.Err without touching anything —
	// a clean failure injected before the real operation.
	Error
	// Torn makes a write site persist only the first Fire.N bytes of the
	// record before failing — the on-disk signature of a crash mid-write.
	Torn
	// Latency makes the site sleep Fire.Delay and then proceed normally.
	Latency
	// Stall is Latency with a long default — a hung disk or peer, bounded
	// only by the caller's own timeouts.
	Stall
	// Corrupt makes the site flip Fire.N bytes of its payload and proceed.
	Corrupt
	// Drop makes the site silently discard its payload while reporting
	// success — acknowledged data that never existed.
	Drop
)

func (a Action) String() string {
	switch a {
	case Error:
		return "error"
	case Torn:
		return "torn"
	case Latency:
		return "latency"
	case Stall:
		return "stall"
	case Corrupt:
		return "corrupt"
	case Drop:
		return "drop"
	default:
		return "none"
	}
}

// ErrInjected is the base of every injected failure, so call sites and
// error mappers can recognise a fault-layer error with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// errENOSPC chains ErrInjected with the real ENOSPC errno, so code that
// special-cases disk-full (errors.Is(err, syscall.ENOSPC)) sees the
// injected fault exactly as it would see the real one.
var errENOSPC = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)

// Fire is one armed decision: what the call site must do. The pointer a
// site receives aliases the rule's prebuilt Fire — read-only, never
// mutated, never allocated per hit.
type Fire struct {
	Action Action
	Err    error         // Error/Torn: the error to return
	Delay  time.Duration // Latency/Stall: how long to sleep
	N      int           // Torn: bytes to persist; Corrupt: bytes to flip
}

// Sleep blocks for the fire's delay (Latency/Stall); a no-op otherwise.
func (f *Fire) Sleep() {
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}

// Rule is one line of a schedule: inject action on count of the window
// matched hits of point, starting after the first after hits, at
// seed-determined positions.
type Rule struct {
	// Point names the failpoint ("store.write", "router.proxy", …).
	Point string `json:"point"`
	// Action is one of error, eio, enospc, torn, latency, stall, corrupt,
	// drop.
	Action string `json:"action"`
	// Arg parameterizes the action: milliseconds for latency/stall
	// (defaults 25 / 2000), byte count for torn/corrupt (defaults 0 / 1).
	Arg int `json:"arg,omitempty"`
	// Count is how many hits fire inside the window.
	Count int `json:"count"`
	// Window is how many matched hits the count is drawn from (default
	// Count: the first Count hits all fire).
	Window int `json:"window,omitempty"`
	// After skips the first After matched hits before the window opens.
	After int `json:"after,omitempty"`
	// Match restricts the rule to hits whose site-supplied tag contains
	// this substring (e.g. one backend's name). Empty matches every hit,
	// including tagless ones.
	Match string `json:"match,omitempty"`
}

// Schedule is the wire form of a fault plan: a seed plus rules.
type Schedule struct {
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`
}

// armedRule is one Rule compiled against a seed: the prebuilt Fire and the
// set of window positions that fire.
type armedRule struct {
	rule    Rule
	fire    Fire
	planned map[uint64]struct{} // window-relative hit indices that fire
	hits    atomic.Uint64       // matched hits observed (monotonic)
	fired   atomic.Uint64       // hits that fired
}

// program is the armed state of one failpoint: the rules targeting it.
type program struct {
	rules []*armedRule
}

// eval runs one hit through the program's rules; the first firing rule
// wins. Rule counters advance even when a later rule fires first, so the
// hit streams stay deterministic per rule.
func (p *program) eval(tag string) *Fire {
	var out *Fire
	for _, r := range p.rules {
		if r.rule.Match != "" && !strings.Contains(tag, r.rule.Match) {
			continue
		}
		h := r.hits.Add(1) - 1
		after, window := uint64(r.rule.After), uint64(r.rule.Window)
		if h < after || h >= after+window {
			continue
		}
		if _, ok := r.planned[h-after]; ok {
			r.fired.Add(1)
			if out == nil {
				out = &r.fire
			}
		}
	}
	return out
}

// Failpoint is one named injection site. The zero-cost contract: while
// disarmed, Eval is one atomic load and a nil check.
type Failpoint struct {
	name string
	prog atomic.Pointer[program]
}

// Name returns the failpoint's registered name.
func (f *Failpoint) Name() string { return f.name }

// Eval returns the action to apply on this hit, or nil (the common case:
// disarmed, or armed but this hit is not scheduled to fire).
func (f *Failpoint) Eval() *Fire {
	p := f.prog.Load()
	if p == nil {
		return nil
	}
	return p.eval("")
}

// EvalTag is Eval with a site-supplied tag for rules carrying a match
// filter (e.g. the peer a request targets).
func (f *Failpoint) EvalTag(tag string) *Fire {
	p := f.prog.Load()
	if p == nil {
		return nil
	}
	return p.eval(tag)
}

// --- registry ---------------------------------------------------------------

var reg struct {
	mu     sync.Mutex
	points map[string]*Failpoint
	seed   uint64
	armed  bool
}

// Register returns the failpoint named name, creating it (disarmed) on
// first use. Consumers register their points as package-level variables so
// the names exist before any schedule arrives.
func Register(name string) *Failpoint {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.points == nil {
		reg.points = make(map[string]*Failpoint)
	}
	if f, ok := reg.points[name]; ok {
		return f
	}
	f := &Failpoint{name: name}
	reg.points[name] = f
	return f
}

// Points lists the registered failpoint names, sorted.
func Points() []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make([]string, 0, len(reg.points))
	for name := range reg.points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Apply compiles a schedule and arms it, replacing any previous schedule
// wholesale (points without rules in the new schedule are disarmed). Every
// rule is validated before anything is armed, so a bad schedule changes
// nothing.
func Apply(s Schedule) error {
	progs := make(map[string][]*armedRule)
	for i, r := range s.Rules {
		ar, err := compileRule(r, s.Seed, uint64(i))
		if err != nil {
			return fmt.Errorf("fault: rule %d: %w", i, err)
		}
		progs[r.Point] = append(progs[r.Point], ar)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for name := range progs {
		if reg.points == nil || reg.points[name] == nil {
			known := make([]string, 0, len(reg.points))
			for n := range reg.points {
				known = append(known, n)
			}
			sort.Strings(known)
			return fmt.Errorf("fault: unknown failpoint %q (registered: %s)", name, strings.Join(known, ", "))
		}
	}
	for name, f := range reg.points {
		if rules, ok := progs[name]; ok {
			f.prog.Store(&program{rules: rules})
		} else {
			f.prog.Store(nil)
		}
	}
	reg.seed = s.Seed
	reg.armed = len(s.Rules) > 0
	return nil
}

// ApplyFile loads a JSON schedule from disk and arms it (the -faults flag).
func ApplyFile(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fault: read schedule: %w", err)
	}
	var s Schedule
	if err := json.Unmarshal(buf, &s); err != nil {
		return fmt.Errorf("fault: decode schedule %s: %w", path, err)
	}
	if err := Apply(s); err != nil {
		return err
	}
	return nil
}

// DisarmAll removes every armed rule; every failpoint returns to the
// zero-overhead path.
func DisarmAll() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, f := range reg.points {
		f.prog.Store(nil)
	}
	reg.armed = false
}

// RuleStatus is the observable state of one armed rule: its definition,
// the size of its seeded fire plan, and live hit/fired counters.
type RuleStatus struct {
	Rule
	Planned int    `json:"planned"` // fires the seed scheduled in the window
	Hits    uint64 `json:"hits"`    // matched hits so far
	Fired   uint64 `json:"fired"`   // hits that fired so far
}

// Status is the wire form of GET /v1/faults: the armed schedule and its
// progress. Two runs of the same seed and workload produce identical
// Fired vectors once every rule's window is fully traversed — the
// determinism the chaos checker asserts.
type Status struct {
	Armed  bool         `json:"armed"`
	Seed   uint64       `json:"seed,omitempty"`
	Points []string     `json:"points"`
	Rules  []RuleStatus `json:"rules,omitempty"`
}

// Snapshot reports the armed schedule and per-rule progress.
func Snapshot() Status {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	st := Status{Armed: reg.armed, Seed: reg.seed}
	names := make([]string, 0, len(reg.points))
	for name := range reg.points {
		names = append(names, name)
	}
	sort.Strings(names)
	st.Points = names
	for _, name := range names {
		p := reg.points[name].prog.Load()
		if p == nil {
			continue
		}
		for _, r := range p.rules {
			st.Rules = append(st.Rules, RuleStatus{
				Rule:    r.rule,
				Planned: len(r.planned),
				Hits:    r.hits.Load(),
				Fired:   r.fired.Load(),
			})
		}
	}
	return st
}

// --- compilation ------------------------------------------------------------

func compileRule(r Rule, seed, idx uint64) (*armedRule, error) {
	if r.Point == "" {
		return nil, errors.New("missing point")
	}
	if r.Count <= 0 {
		return nil, fmt.Errorf("point %s: count must be positive", r.Point)
	}
	if r.Window < 0 || r.After < 0 || r.Arg < 0 {
		return nil, fmt.Errorf("point %s: window/after/arg must be non-negative", r.Point)
	}
	if r.Window == 0 {
		r.Window = r.Count
	}
	if r.Count > r.Window {
		r.Count = r.Window
	}
	ar := &armedRule{rule: r}
	switch r.Action {
	case "error", "eio":
		ar.fire = Fire{Action: Error, Err: ErrInjected}
	case "enospc":
		ar.fire = Fire{Action: Error, Err: errENOSPC}
	case "torn":
		ar.fire = Fire{Action: Torn, Err: ErrInjected, N: r.Arg}
	case "latency":
		ms := r.Arg
		if ms == 0 {
			ms = 25
		}
		ar.fire = Fire{Action: Latency, Delay: time.Duration(ms) * time.Millisecond}
	case "stall":
		ms := r.Arg
		if ms == 0 {
			ms = 2000
		}
		ar.fire = Fire{Action: Stall, Delay: time.Duration(ms) * time.Millisecond}
	case "corrupt":
		n := r.Arg
		if n == 0 {
			n = 1
		}
		ar.fire = Fire{Action: Corrupt, N: n}
	case "drop":
		ar.fire = Fire{Action: Drop}
	default:
		return nil, fmt.Errorf("point %s: unknown action %q", r.Point, r.Action)
	}
	ar.planned = planFires(seed, r.Point, idx, r.Count, r.Window)
	return ar, nil
}

// planFires draws count distinct fire positions from [0, window) using a
// PCG stream keyed by (seed, point name, rule index) — a pure function of
// the schedule, so every process arms the identical plan.
func planFires(seed uint64, point string, idx uint64, count, window int) map[uint64]struct{} {
	out := make(map[uint64]struct{}, count)
	if count >= window {
		for i := 0; i < window; i++ {
			out[uint64(i)] = struct{}{}
		}
		return out
	}
	// Partial Fisher-Yates over the window: positions[0:count] after count
	// seeded swaps is a uniform count-subset.
	positions := make([]uint64, window)
	for i := range positions {
		positions[i] = uint64(i)
	}
	rng := newPCG(seed ^ fnv64(point) ^ (idx+1)*0x9e3779b97f4a7c15)
	for i := 0; i < count; i++ {
		j := i + int(rng.uint64n(uint64(window-i)))
		positions[i], positions[j] = positions[j], positions[i]
	}
	for _, p := range positions[:count] {
		out[p] = struct{}{}
	}
	return out
}

func fnv64(s string) uint64 {
	const prime = 1099511628211
	x := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= prime
	}
	return x
}

// pcg is a PCG-XSH-RR 64/32 generator — tiny, seedable, and identical
// everywhere, which is all the schedule needs.
type pcg struct {
	state uint64
	inc   uint64
}

func newPCG(seed uint64) *pcg {
	p := &pcg{inc: (seed << 1) | 1}
	p.state = seed + p.inc
	p.next()
	return p
}

func (p *pcg) next() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

func (p *pcg) uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	v := (uint64(p.next()) << 32) | uint64(p.next())
	return v % n
}
