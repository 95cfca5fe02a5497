package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"relm/internal/simrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("At wrong")
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set wrong")
	}
	if r := m.Row(1); r[0] != 3 || r[1] != 4 {
		t.Fatal("Row wrong")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T dims %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatal("T values wrong")
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := a.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.At(0, 0), 2, 1e-12) || !almostEq(l.At(1, 0), 1, 1e-12) ||
		!almostEq(l.At(1, 1), math.Sqrt(2), 1e-12) {
		t.Fatalf("L = %v", l.Data)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPSD")
	}
}

// randomSPD builds A = B·Bᵀ + n·I, guaranteed symmetric positive definite.
func randomSPD(rng *simrand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.Norm(0, 1)
	}
	a := b.Mul(b.T())
	a.AddDiag(float64(n))
	return a
}

// Property: Cholesky round-trips (L·Lᵀ == A) for random SPD matrices.
func TestCholeskyRoundTripProperty(t *testing.T) {
	rng := simrand.New(99)
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		back := l.Mul(l.T())
		for i := range a.Data {
			if !almostEq(a.Data[i], back.Data[i], 1e-8*float64(n)) {
				t.Fatalf("trial %d: L·Lᵀ != A at %d: %v vs %v", trial, i, back.Data[i], a.Data[i])
			}
		}
	}
}

// Property: CholSolve solves A·x = b.
func TestCholSolveProperty(t *testing.T) {
	rng := simrand.New(123)
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Norm(0, 2)
		}
		b := a.MulVec(x)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := CholSolve(l, b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6) {
				t.Fatalf("trial %d: solve[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestSolveLowerUpper(t *testing.T) {
	l := FromRows([][]float64{{2, 0}, {1, 3}})
	// L·x = b with b = (4, 11) → x = (2, 3).
	x := SolveLower(l, []float64{4, 11})
	if !almostEq(x[0], 2, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("SolveLower = %v", x)
	}
	// Lᵀ·y = b with b = (7, 9) → y = (2, 3) since Lᵀ = [[2,1],[0,3]].
	y := SolveUpperT(l, []float64{7, 9})
	if !almostEq(y[0], 2, 1e-12) || !almostEq(y[1], 3, 1e-12) {
		t.Fatalf("SolveUpperT = %v", y)
	}
}

func TestLogDetFromChol(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 9}}) // det = 36
	l, _ := Cholesky(a)
	if !almostEq(LogDetFromChol(l), math.Log(36), 1e-12) {
		t.Fatal("log det wrong")
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Nearly singular Gram matrix (duplicate rows).
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	l, err := CholeskyJitter(a)
	if err != nil {
		t.Fatalf("jitter should recover: %v", err)
	}
	if l == nil {
		t.Fatal("nil factor")
	}
}

func TestAddScaleClone(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	clone := a.Clone()
	if clone.Rows != 1 || clone.Cols != 2 || clone.At(0, 1) != 2 {
		t.Fatal("Clone wrong")
	}
	clone.Set(0, 0, 3)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

// Property via testing/quick: Dot is symmetric (inputs tamed to a finite
// range so products cannot overflow).
func TestDotSymmetry(t *testing.T) {
	f := func(a, b [4]float64) bool {
		x, y := tame(a[:]), tame(b[:])
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tame maps arbitrary floats into [-100, 100], replacing non-finite values.
func tame(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1
		}
		out[i] = math.Remainder(v, 100)
	}
	return out
}

func TestDimensionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Mul":    func() { NewMatrix(2, 2).Mul(NewMatrix(3, 3)) },
		"MulVec": func() { NewMatrix(2, 2).MulVec([]float64{1}) },
		"Dot":    func() { Dot([]float64{1}, []float64{1, 2}) },
		"ragged": func() { FromRows([][]float64{{1, 2}, {3}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: growing a Cholesky factor one bordered row at a time bit-matches
// the batch factorization of the full matrix — CholAppendRow computes the
// exact arithmetic a fresh Cholesky would for that row.
func TestCholAppendRowMatchesBatch(t *testing.T) {
	rng := simrand.New(7)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(10)
		a := randomSPD(rng, n)
		full, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		start := 1 + rng.Intn(n-1)
		// Factor of the leading start×start block.
		sub := NewMatrix(start, start)
		for i := 0; i < start; i++ {
			copy(sub.Row(i), a.Row(i)[:start])
		}
		l, err := Cholesky(sub)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for m := start; m < n; m++ {
			k := make([]float64, m)
			copy(k, a.Row(m)[:m])
			l, err = CholAppendRow(l, k, a.At(m, m))
			if err != nil {
				t.Fatalf("trial %d: append row %d: %v", trial, m, err)
			}
		}
		if l.Rows != n || l.Cols != n {
			t.Fatalf("trial %d: grew to %dx%d, want %dx%d", trial, l.Rows, l.Cols, n, n)
		}
		for i := range full.Data {
			if l.Data[i] != full.Data[i] {
				t.Fatalf("trial %d: factor diverges from batch at %d: %v vs %v",
					trial, i, l.Data[i], full.Data[i])
			}
		}
	}
}

// CholAppendRow must reject a bordered row that makes the matrix indefinite,
// leaving the original factor usable.
func TestCholAppendRowRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 4}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// d - kᵀA⁻¹k = 1 - (4+4)/4·... pick k large enough that the Schur
	// complement is negative: k=(4,4), d=1 → 1 - (4+4) < 0.
	if _, err := CholAppendRow(l, []float64{4, 4}, 1); err != ErrNotPSD {
		t.Fatalf("want ErrNotPSD, got %v", err)
	}
	if l.Rows != 2 || l.Cols != 2 || l.At(0, 0) != 2 || l.At(1, 1) != 2 {
		t.Fatal("failed append must leave the factor intact")
	}
	// The intact factor still accepts a legal append.
	l2, err := CholAppendRow(l, []float64{0, 0}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if l2.At(2, 2) != 3 {
		t.Fatalf("diag = %v, want 3", l2.At(2, 2))
	}
	if l2.At(0, 2) != 0 || l2.At(1, 2) != 0 {
		t.Fatal("upper triangle of grown factor must be zero")
	}
}

// After a growth reallocation, subsequent appends must reuse the spare
// capacity in place (no per-append allocation until capacity runs out).
func TestCholAppendRowReusesCapacity(t *testing.T) {
	rng := simrand.New(21)
	n := 12
	a := randomSPD(rng, n)
	sub := NewMatrix(1, 1)
	sub.Set(0, 0, a.At(0, 0))
	l, err := Cholesky(sub)
	if err != nil {
		t.Fatal(err)
	}
	inPlace := 0
	for m := 1; m < n; m++ {
		prev := l
		k := make([]float64, m)
		copy(k, a.Row(m)[:m])
		l, err = CholAppendRow(l, k, a.At(m, m))
		if err != nil {
			t.Fatal(err)
		}
		if l == prev {
			inPlace++
		}
	}
	if inPlace == 0 {
		t.Fatal("no append reused the factor's backing array in place")
	}
}

func TestSolveIntoVariantsAliasSafe(t *testing.T) {
	rng := simrand.New(33)
	a := randomSPD(rng, 6)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.Norm(0, 1)
	}
	wantLower := SolveLower(l, b)
	wantUpper := SolveUpperT(l, b)
	wantChol := CholSolve(l, b)

	in := append([]float64(nil), b...)
	if got := SolveLowerInto(l, in, in); !equalVec(got, wantLower) {
		t.Fatal("in-place SolveLowerInto mismatch")
	}
	in = append([]float64(nil), b...)
	if got := SolveUpperTInto(l, in, in); !equalVec(got, wantUpper) {
		t.Fatal("in-place SolveUpperTInto mismatch")
	}
	in = append([]float64(nil), b...)
	if got := CholSolveInto(l, in, in); !equalVec(got, wantChol) {
		t.Fatal("in-place CholSolveInto mismatch")
	}
	dst := make([]float64, 6)
	if got := CholSolveInto(l, b, dst); !equalVec(got, wantChol) {
		t.Fatal("out-of-place CholSolveInto mismatch")
	}
}

func TestMulVecInto(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	v := []float64{1, -1}
	dst := make([]float64, 3)
	if got := m.MulVecInto(v, dst); !equalVec(got, []float64{-1, -1, -1}) {
		t.Fatalf("MulVecInto = %v", got)
	}
	if !equalVec(dst, m.MulVec(v)) {
		t.Fatal("MulVecInto disagrees with MulVec")
	}
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
