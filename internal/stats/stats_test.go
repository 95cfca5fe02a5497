package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Std(xs) != 2 {
		t.Fatalf("Std = %v", Std(xs))
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || StdErr(nil) != 0 {
		t.Fatal("empty-input moments should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 9 {
		t.Fatal("Min/Max/Sum wrong")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max sentinel wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

// sortedPercentile is the sort-based Percentile that selection replaced.
func sortedPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestPercentileMatchesSort compares selection with the sort it replaced,
// bit for bit, over inputs with distinct values, runs of duplicates, ±Inf
// and NaN, ascending and descending. (Signed zeros are left out: the two
// compare equal, so neither sort.Float64s nor selection orders them.)
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	inputs := []struct {
		name string
		draw func(n, i int) float64
	}{
		{"distinct", func(n, i int) float64 { return rng.NormFloat64() * 100 }},
		{"duplicates", func(n, i int) float64 { return float64(rng.IntN(n/8 + 1)) }},
		{"specials", func(n, i int) float64 {
			if rng.IntN(4) == 0 {
				return special[rng.IntN(len(special))]
			}
			return float64(rng.IntN(n/2+1)) - float64(n/4)
		}},
		{"ascending", func(n, i int) float64 { return float64(i / 3) }},
		{"descending", func(n, i int) float64 { return float64(n - i) }},
	}
	var sizes []int
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for n := 331; n < 5000; n = n * 11 / 10 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 5000)
	for _, in := range inputs {
		for _, n := range sizes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = in.draw(n, i)
			}
			for _, p := range []float64{0, 10, 50, 90, 99.5, 100} {
				if got, want := Percentile(xs, p), sortedPercentile(xs, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: Percentile(%v) = %v, sort gives %v", in.name, n, p, got, want)
				}
			}
			if got, want := Median(xs), sortedPercentile(xs, 50); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: Median = %v, sort gives %v", in.name, n, got, want)
			}
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{40, 30, 20, 10}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant series should give 0")
	}
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("short series should give 0")
	}
	if Pearson([]float64{1, 2}, []float64{1, 2, 3}) != 0 {
		t.Fatal("length mismatch should give 0")
	}
}

func TestRSquared(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if r := RSquared(obs, obs); r != 1 {
		t.Fatalf("perfect model R² = %v", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := RSquared(obs, mean); math.Abs(r) > 1e-12 {
		t.Fatalf("mean model R² = %v, want 0", r)
	}
	bad := []float64{4, 3, 2, 1}
	if r := RSquared(obs, bad); r >= 0 {
		t.Fatalf("anti-model R² = %v, want negative", r)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 8, 18, 32, 50} // monotone but nonlinear
	if r := Spearman(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", r)
	}
}

func TestBox(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.N != 5 {
		t.Fatalf("Box = %+v", b)
	}
	if b.Q25 != 2 || b.Q75 != 4 {
		t.Fatalf("quartiles = %v/%v", b.Q25, b.Q75)
	}
}

// tame maps arbitrary floats into [-100, 100], replacing non-finite values,
// so quick-generated extremes cannot overflow intermediate products.
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

// Property: Pearson is bounded in [-1, 1] and symmetric.
func TestPearsonProperty(t *testing.T) {
	f := func(a, b [6]float64) bool {
		x, y := tame(a[:]), tame(b[:])
		r := Pearson(x, y)
		if math.IsNaN(r) || r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		return math.Abs(r-Pearson(y, x)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(a [8]float64) bool {
		xs := tame(a[:])
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-9 || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
