// Package linalg implements the small dense linear-algebra kernel needed by
// the Gaussian-Process surrogate model: matrices, Cholesky factorization,
// triangular solves and a few vector helpers. It is deliberately minimal and
// allocation-conscious; matrices are row-major []float64 slices.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m × b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d × %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

// MulVec returns m × v as a vector.
func (m *Matrix) MulVec(v []float64) []float64 {
	return m.MulVecInto(v, make([]float64, m.Rows))
}

// MulVecInto computes m × v into dst (which must have length m.Rows and
// must not alias v) and returns dst. It performs no allocation.
func (m *Matrix) MulVecInto(v, dst []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: MulVec dimension mismatch")
	}
	if len(dst) != m.Rows {
		panic("linalg: MulVecInto dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), v)
	}
	return dst
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AddDiag adds v to each diagonal element in place.
func (m *Matrix) AddDiag(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// ErrNotPSD is returned by Cholesky when the matrix is not (numerically)
// positive definite even after jitter.
var ErrNotPSD = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular L with L·Lᵀ = m for a symmetric
// positive-definite matrix. It returns ErrNotPSD if the factorization fails.
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("linalg: Cholesky on non-square matrix")
	}
	return choleskyInto(m, 0, NewMatrix(m.Rows, m.Rows))
}

// choleskyInto factors m + jitter·I into l, an n×n matrix whose upper
// triangle is zero, reading m's lower triangle only. Every entry it reads
// of l it has written first, so l may hold an earlier factor.
func choleskyInto(m *Matrix, jitter float64, l *Matrix) (*Matrix, error) {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			if i == j && jitter != 0 {
				sum += jitter
			}
			li, lj := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPSD
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return l, nil
}

// CholeskyJitter is Cholesky with progressively larger diagonal jitter, the
// standard trick to stabilize Gram matrices built from nearly-duplicate
// sample points. It writes the factor into l when l is a factor this
// package made of an n×n matrix (its upper triangle is zero), into a new
// matrix otherwise, with the same bits either way, and never changes m.
func CholeskyJitter(m, l *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("linalg: Cholesky on non-square matrix")
	}
	if l == nil || l.Rows != m.Rows || l.Cols != m.Cols {
		l = NewMatrix(m.Rows, m.Cols)
	}
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if _, err := choleskyInto(m, jitter, l); err == nil {
			return l, nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
	}
	return nil, ErrNotPSD
}

// SolveLower solves L·x = b for lower-triangular L.
func SolveLower(l *Matrix, b []float64) []float64 {
	return SolveLowerInto(l, b, make([]float64, l.Rows))
}

// SolveLowerInto solves L·x = b into dst and returns dst. Forward
// substitution proceeds in index order, so dst may alias b (in-place
// solve); no allocation is performed.
func SolveLowerInto(l *Matrix, b, dst []float64) []float64 {
	n := l.Rows
	if len(b) != n || len(dst) != n {
		panic("linalg: SolveLower dimension mismatch")
	}
	for i := 0; i < n; i++ {
		sum := b[i]
		li := l.Row(i)
		for k := 0; k < i; k++ {
			sum -= li[k] * dst[k]
		}
		dst[i] = sum / li[i]
	}
	return dst
}

// SolveUpperT solves Lᵀ·x = b given lower-triangular L (i.e. an upper solve
// against the transpose, without materializing it).
func SolveUpperT(l *Matrix, b []float64) []float64 {
	return SolveUpperTInto(l, b, make([]float64, l.Rows))
}

// SolveUpperTInto solves Lᵀ·x = b into dst and returns dst. Backward
// substitution proceeds in reverse index order, so dst may alias b; no
// allocation is performed.
func SolveUpperTInto(l *Matrix, b, dst []float64) []float64 {
	n := l.Rows
	if len(b) != n || len(dst) != n {
		panic("linalg: SolveUpperT dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * dst[k]
		}
		dst[i] = sum / l.At(i, i)
	}
	return dst
}

// CholSolve solves (L·Lᵀ)·x = b using a precomputed Cholesky factor.
func CholSolve(l *Matrix, b []float64) []float64 {
	return SolveUpperT(l, SolveLower(l, b))
}

// CholSolveInto solves (L·Lᵀ)·x = b into dst and returns dst. dst may
// alias b; no allocation is performed.
func CholSolveInto(l *Matrix, b, dst []float64) []float64 {
	if len(b) != l.Rows || len(dst) != l.Rows {
		panic("linalg: CholSolve dimension mismatch")
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	SolveLowerInto(l, dst, dst)
	return SolveUpperTInto(l, dst, dst)
}

// CholAppendRow extends the Cholesky factor L of an n×n SPD matrix A to
// the factor of the bordered matrix [[A, k], [kᵀ, d]], where k is the new
// off-diagonal column of A and d its new diagonal entry. The new row is
// exactly the row a fresh batch Cholesky would compute (same arithmetic,
// same rounding), so repeated appends bit-match a full refactorization —
// but cost O(n²) instead of O(n³).
//
// The returned matrix reuses (and re-strides) l's backing array when its
// capacity allows, growing it geometrically otherwise so a sequence of
// appends costs amortized O(n²) with O(log n) allocations. l must not be
// used after a successful call. ErrNotPSD is returned — with l left
// intact — when the new pivot is not positive, i.e. the bordered matrix
// is not numerically positive definite.
func CholAppendRow(l *Matrix, k []float64, d float64) (*Matrix, error) {
	n := l.Rows
	if l.Cols != n {
		panic("linalg: CholAppendRow on non-square factor")
	}
	if len(k) != n {
		panic("linalg: CholAppendRow dimension mismatch")
	}
	need := (n + 1) * (n + 1)
	if cap(l.Data) >= need+n {
		// In-place path. The solved row is staged in the spare capacity
		// at [n², n²+n) — computed against the still-intact old layout —
		// then moved to its final offset before rows re-stride.
		data := l.Data[:need+n]
		row := SolveLowerInto(l, k, data[n*n:n*n+n])
		s := pivot(d, row)
		if s <= 0 || math.IsNaN(s) {
			return nil, ErrNotPSD
		}
		copy(data[n*(n+1):n*(n+1)+n], row)
		data[n*(n+1)+n] = math.Sqrt(s)
		// Re-stride rows last-to-first: row i moves from offset i·n to
		// i·(n+1), which never clobbers a row not yet moved, and copy
		// handles each row's own overlapping shift. The freed slot at
		// column n of every old row is the factor's upper triangle —
		// zero it.
		for i := n - 1; i >= 1; i-- {
			copy(data[i*(n+1):i*(n+1)+n], data[i*n:i*n+n])
		}
		for i := 0; i < n; i++ {
			data[i*(n+1)+n] = 0
		}
		l.Rows, l.Cols, l.Data = n+1, n+1, data[:need]
		return l, nil
	}
	// Growth path: allocate with ~1.5× the linear dimension of headroom
	// (plus staging room for the next in-place append's solved row).
	gd := n + 1 + (n+1)/2 + 1
	data := make([]float64, need, gd*gd)
	out := &Matrix{Rows: n + 1, Cols: n + 1, Data: data}
	for i := 0; i < n; i++ {
		copy(data[i*(n+1):i*(n+1)+n], l.Row(i))
	}
	row := SolveLowerInto(l, k, data[n*(n+1):n*(n+1)+n])
	s := pivot(d, row)
	if s <= 0 || math.IsNaN(s) {
		return nil, ErrNotPSD
	}
	data[n*(n+1)+n] = math.Sqrt(s)
	return out, nil
}

// pivot computes d - Σ row[k]² with the same left-to-right subtraction
// order as Cholesky's diagonal update, so appended factors bit-match the
// batch factorization.
func pivot(d float64, row []float64) float64 {
	for _, v := range row {
		d -= v * v
	}
	return d
}

// LogDetFromChol returns log|A| given A = L·Lᵀ.
func LogDetFromChol(l *Matrix) float64 {
	var s float64
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}
