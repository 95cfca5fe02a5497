package bo

import (
	"slices"

	"relm/internal/conf"
	"relm/internal/gp"
)

// poolSize is the random-search pool of the acquisition maximizer —
// unchanged from the original implementation, but now scored in one batch.
const poolSize = 256

// acqScratch holds every buffer of one acquisition maximization: the
// candidate pool, its decoded configurations and feature rows, the batched
// posterior, and the hill-climb probes. It lives on the Tuner, so one
// session reuses it across observations and concurrent sessions never
// contend on allocation.
type acqScratch struct {
	cands [][]float64 // poolSize row views into one backing array
	cfgs  []conf.Config

	featFlat []float64   // feature-row backing (distinct from cands when an Extra hook is set)
	featOffs []int       // row boundaries in featFlat
	feats    [][]float64 // row views into featFlat

	means []float64
	vars  []float64
	gps   gp.Scratch

	best  []float64  // incumbent acquisition point
	probe []float64  // hill-climb candidate
	pfeat []float64  // its feature row
	tried []probeKey // probes scored from the current incumbent
}

// probeKey names a hill-climb probe by the coordinate it moves and where.
type probeKey struct {
	d int
	v float64
}

// grow readies the pool buffers for dim-dimensional candidates. A tuner's
// dimension never changes, so they are built once, row views and all.
func (a *acqScratch) grow(dim int) {
	if len(a.best) == dim {
		return
	}
	flat := make([]float64, poolSize*dim)
	a.cands = make([][]float64, poolSize)
	for i := range a.cands {
		a.cands[i] = flat[i*dim : (i+1)*dim]
	}
	a.cfgs = make([]conf.Config, poolSize)
	a.means = make([]float64, poolSize)
	a.vars = make([]float64, poolSize)
	a.best = make([]float64, dim)
	a.probe = make([]float64, dim)
}

// maximizeEI runs the paper's acquisition search — random sampling plus
// coordinate hill-climbing over the normalized space, skipping
// already-observed configurations — scoring the candidate pool through the
// surrogate's batched, allocation-free path (every gp.Surrogate provides
// it; non-GP models simply ignore the scratch). The probe order, RNG stream
// and tie-breaking are identical to the original per-candidate
// implementation, so it selects the same point; only the evaluation
// plumbing changed, and the hill-climb no longer re-scores a point it has
// scored from the same incumbent. Returns a freshly copied point (or nil
// when every candidate was already observed) and its expected improvement.
func (t *Tuner) maximizeEI(model gp.Surrogate, tau float64) ([]float64, float64) {
	a := &t.acq
	dim := t.sp.Dim()
	a.grow(dim)

	// Random pool: same RNG draw order as the scalar implementation.
	for _, x := range a.cands {
		for d := range x {
			x[d] = t.rng.Float64()
		}
	}
	// The hooks read every candidate's configuration. Without them only a
	// candidate that would beat bestEI is decoded and checked against the
	// observed set: exact, since skipping a seen candidate and the strict >
	// commute.
	hooked := t.extra != nil || t.pen != nil
	if hooked {
		for i, x := range a.cands {
			a.cfgs[i] = t.sp.Decode(x)
		}
	}
	feats := t.poolFeatures()
	model.PredictBatch(feats, a.means, a.vars, &a.gps)
	bestEI := -1.0
	bestIdx := -1
	for i, x := range a.cands {
		ei := ExpectedImprovement(a.means[i], a.vars[i], tau)
		if !hooked {
			if ei > bestEI && !t.seen[t.sp.Decode(x)] {
				bestEI, bestIdx = ei, i
			}
			continue
		}
		if t.seen[a.cfgs[i]] {
			continue
		}
		if t.pen != nil && mayWin(ei, bestEI) {
			ei *= t.pen(a.cands[i], a.cfgs[i])
		}
		if ei > bestEI {
			bestEI, bestIdx = ei, i
		}
	}
	if bestIdx < 0 {
		return nil, 0
	}
	copy(a.best, a.cands[bestIdx])

	// Coordinate hill-climb from the incumbent acquisition point. A probe
	// that keeps the incumbent's coordinate (clamped) or repeats one tried
	// from it is skipped: exact, since a point scores the same every time
	// and cannot beat a bestEI that only rises under the strict >.
	eiAt := func(x []float64, cfg conf.Config) float64 {
		f := t.probeFeatures(x, cfg)
		mean, variance := model.PredictInto(f, &a.gps)
		ei := ExpectedImprovement(mean, variance, tau)
		if t.pen != nil && mayWin(ei, bestEI) {
			ei *= t.pen(x, cfg)
		}
		return ei
	}
	a.tried = a.tried[:0]
	step := 0.25
	for step > 0.02 {
		improved := false
		for d := 0; d < dim; d++ {
			for _, dir := range []float64{-1, 1} {
				v := clamp01(a.best[d] + dir*step)
				if v == a.best[d] || slices.Contains(a.tried, probeKey{d, v}) {
					continue
				}
				a.tried = append(a.tried, probeKey{d, v})
				copy(a.probe, a.best)
				a.probe[d] = v
				cfg := t.sp.Decode(a.probe)
				if t.seen[cfg] {
					continue
				}
				if ei := eiAt(a.probe, cfg); ei > bestEI {
					bestEI = ei
					copy(a.best, a.probe)
					a.tried = a.tried[:0]
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return append([]float64(nil), a.best...), bestEI
}

// mayWin reports whether a candidate of raw expected improvement ei can
// beat bestEI once a Penalty in [0, 1] scales it: such a penalty only
// lowers a non-negative ei, but lifts a negative one (rounding) toward 0.
func mayWin(ei, bestEI float64) bool { return ei > bestEI || ei < 0 }

// poolFeatures maps the candidate pool through the Extra hook. Without a
// hook the candidates are their own feature rows; with one, combined rows
// are packed into a reused flat buffer (views are built only after the
// buffer stops growing, so reallocation cannot strand them).
func (t *Tuner) poolFeatures() [][]float64 {
	a := &t.acq
	if t.extra == nil {
		return a.cands
	}
	flat := a.featFlat[:0]
	offs := a.featOffs[:0]
	for i, x := range a.cands {
		offs = append(offs, len(flat))
		flat = append(flat, x...)
		flat = append(flat, t.extra(x, a.cfgs[i])...)
	}
	offs = append(offs, len(flat))
	a.featFlat, a.featOffs = flat, offs
	feats := a.feats[:0]
	for i := 0; i+1 < len(offs); i++ {
		feats = append(feats, flat[offs[i]:offs[i+1]])
	}
	a.feats = feats
	return feats
}

// probeFeatures builds the feature row of one hill-climb probe into a
// reused buffer.
func (t *Tuner) probeFeatures(x []float64, cfg conf.Config) []float64 {
	if t.extra == nil {
		return x
	}
	a := &t.acq
	a.pfeat = append(a.pfeat[:0], x...)
	a.pfeat = append(a.pfeat, t.extra(x, cfg)...)
	return a.pfeat
}
