package obs

import "sync"

// Registry is a named collection of histograms — one per pipeline stage.
// A nil *Registry is valid and hands out nil histograms, which record
// into the void, so callers wire `reg.Histogram("wal.append")` without
// caring whether observability is enabled.
type Registry struct {
	mu    sync.RWMutex
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Histogram returns the histogram registered under name, creating it on
// first use. Idempotent: every caller asking for the same stage name
// shares one histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshots returns a stable-ordered copy of every stage's snapshot.
func (r *Registry) Snapshots() map[string]Snapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make(map[string]Snapshot, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	r.mu.RUnlock()
	return out
}
