package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincide on %d of 64 draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Error("forked children with different labels should differ")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("normal mean = %v, want ≈10", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("normal std = %v, want ≈2", std)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(7)
	const n = 20000
	for _, lambda := range []float64{0.5, 2, 5} {
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.15*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := New(8)
	for i := 0; i < 100; i++ {
		if r.Poisson(0) != 0 {
			t.Fatal("Poisson(0) must be 0")
		}
		if r.Poisson(-1) != 0 {
			t.Fatal("Poisson(-1) must be 0")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRange(t *testing.T) {
	r := New(10)
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 5)
		if v < 3 || v >= 5 {
			t.Fatalf("Range(3,5) out of bounds: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

// Property: seeded streams are pure functions of the seed.
func TestSeedPurity(t *testing.T) {
	f := func(seed uint64) bool {
		return New(seed).Uint64() == New(seed).Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
