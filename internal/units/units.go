// Package units provides the shared memory and time units used across the
// simulator and the tuners. All memory quantities in the repository are
// expressed in MB (float64) and all simulated durations in seconds (float64)
// unless a name says otherwise.
package units

// Common memory sizes in MB.
const (
	KB = 1.0 / 1024.0
	MB = 1.0
	GB = 1024.0
)

// Clamp bounds v into [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt bounds v into [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MaxF returns the larger of a and b.
func MaxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
