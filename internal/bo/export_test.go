package bo

// SetAcquired installs f as the acquisition hook (nil removes it).
func SetAcquired(f func(t *Tuner, x []float64, ei float64)) { acquired = f }

// MaximizeEI runs one acquisition maximization against t's current
// surrogate and measured incumbent, returning its expected improvement.
func MaximizeEI(t *Tuner) float64 {
	_, ei := t.maximizeEI(t.sur, bestObjective(t.ys))
	return ei
}
