package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/singleton cases wrong")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 11 {
		t.Errorf("Min/Max/Sum = %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be infinities")
	}
}

func TestCI95(t *testing.T) {
	// Constant sample has zero CI.
	if got := CI95([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("CI95 constant = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2) // sd ≈ 0.5025
	}
	got := CI95(xs)
	want := 1.96 * StdDev(xs) / 10
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95 = %v want %v", got, want)
	}
	if CI95([]float64{1}) != 0 {
		t.Error("CI95 of singleton should be 0")
	}
}

func TestQuantileMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("Q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("Q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("Q25 = %v", got)
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interp = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0},
		{1, 0.25},
		{2, 0.75},
		{2.5, 0.75},
		{3, 1},
		{99, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("Points lengths = %d %d", len(xs), len(ps))
	}
	if ps[0] != c.At(1) || ps[4] != 1 {
		t.Errorf("Points ends = %v %v", ps[0], ps[4])
	}
	// Monotone.
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			t.Errorf("CDF not monotone at %d", i)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		c := NewCDF(clean)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 9.99, -5, 100}, 0, 10, 10)
	if h.Total != 7 {
		t.Fatalf("Total = %d", h.Total)
	}
	// 0 -> bin 0, 1 -> bin 1, 2 -> bin 2, 3 -> bin 3, 9.99 -> bin 9,
	// -5 clamps to bin 0, 100 clamps to bin 9.
	if h.Counts[0] != 2 {
		t.Errorf("Counts[0] = %d, want 2: counts=%v", h.Counts[0], h.Counts)
	}
	if h.Counts[9] != 2 {
		t.Errorf("Counts[9] = %d", h.Counts[9])
	}
	if got := h.BinCenter(0); got != 0.5 {
		t.Errorf("BinCenter = %v", got)
	}
	if got := h.Fraction(9); math.Abs(got-2.0/7) > 1e-12 {
		t.Errorf("Fraction = %v", got)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Error("fresh EWMA should not be initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Errorf("first Update = %v", got)
	}
	if got := e.Update(20); got != 15 {
		t.Errorf("second Update = %v", got)
	}
	if got := e.Value(); got != 15 {
		t.Errorf("Value = %v", got)
	}
	e.Reset()
	if e.Initialized() || e.Value() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestLinSpace(t *testing.T) {
	xs := LinSpace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if xs[i] != want[i] {
			t.Errorf("LinSpace[%d] = %v", i, xs[i])
		}
	}
	if LinSpace(0, 1, 0) != nil {
		t.Error("n=0 should be nil")
	}
	if got := LinSpace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("n=1 = %v", got)
	}
}

func TestDBConversions(t *testing.T) {
	if got := DB(100); got != 20 {
		t.Errorf("DB = %v", got)
	}
	if got := MilliwattToDBm(1); got != 0 {
		t.Errorf("MilliwattToDBm = %v", got)
	}
	if !math.IsInf(MilliwattToDBm(0), -1) {
		t.Error("0 mW should be -Inf dBm")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() == c.Uint64() && i > 0 {
			continue
		}
		same = false
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed stuck at zero")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn did not cover range: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGNorm(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm(5, 2)
	}
	if m := Mean(xs); math.Abs(m-5) > 0.1 {
		t.Errorf("Norm mean = %v", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 0.1 {
		t.Errorf("Norm sd = %v", sd)
	}
}

func TestRNGExp(t *testing.T) {
	r := NewRNG(13)
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Exp(3)
		if xs[i] < 0 {
			t.Fatal("Exp negative")
		}
	}
	if m := Mean(xs); math.Abs(m-3) > 0.15 {
		t.Errorf("Exp mean = %v", m)
	}
}

func TestRNGBoolFork(t *testing.T) {
	r := NewRNG(17)
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	if trues < 2700 || trues > 3300 {
		t.Errorf("Bool(0.3) rate = %d/10000", trues)
	}
	f := r.Fork()
	if f == nil {
		t.Fatal("Fork nil")
	}
	// Forked stream should differ from parent continuation.
	if f.Uint64() == r.Uint64() {
		t.Error("fork identical to parent")
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}
