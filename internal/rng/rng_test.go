package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42, "workload")
	b := New(42, "workload")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
}

func TestStreamIndependenceByName(t *testing.T) {
	a := New(42, "workload")
	b := New(42, "solar")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look identical: %d/100 equal draws", same)
	}
}

func TestStreamIndependenceBySeed(t *testing.T) {
	a := New(1, "x")
	b := New(2, "x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds look identical: %d/100 equal draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(7, "u")
	for i := 0; i < 1000; i++ {
		v := s.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Uniform(3,9) out of range: %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(7, "poisson")
	for _, mean := range []float64{0.5, 3, 20, 200} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		// Standard error ~ sqrt(mean/n); allow 6 sigma.
		tol := 6 * math.Sqrt(mean/float64(n))
		if math.Abs(got-mean) > tol {
			t.Errorf("Poisson(%v) sample mean %v, want within %v", mean, got, tol)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	s := New(7, "poisson-nn")
	for i := 0; i < 5000; i++ {
		if s.Poisson(100) < 0 {
			t.Fatal("Poisson returned negative")
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive mean should be 0")
	}
}

// TestPoissonExpMatchesPoisson requires the precomputed-limit entry point
// to return the same draws and consume the same source steps as Poisson,
// on both sides of the normal-approximation cutoff.
func TestPoissonExpMatchesPoisson(t *testing.T) {
	for _, mean := range []float64{-1, 0, 0.1, 1, 7.5, 64, 64.5, 300} {
		a, b := New(11, "poisson-exp"), New(11, "poisson-exp")
		expNeg := math.Exp(-mean)
		for i := 0; i < 2000; i++ {
			if x, y := a.Poisson(mean), b.PoissonExp(mean, expNeg); x != y {
				t.Fatalf("mean %v draw %d: Poisson %d, PoissonExp %d", mean, i, x, y)
			}
		}
		if a.Draws() != b.Draws() {
			t.Fatalf("mean %v: Poisson consumed %d draws, PoissonExp %d", mean, a.Draws(), b.Draws())
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(7, "exp")
	rate := 2.0
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(rate)
	}
	got := sum / float64(n)
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("Exp(2) sample mean %v, want ~0.5", got)
	}
}

func TestWeibullMean(t *testing.T) {
	s := New(7, "weibull")
	// k=2, lambda=8 has mean lambda*Gamma(1+1/2)=8*sqrt(pi)/2 ~= 7.0898
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Weibull(2, 8)
		if v < 0 {
			t.Fatal("Weibull negative")
		}
		sum += v
	}
	want := 8 * math.Sqrt(math.Pi) / 2
	got := sum / float64(n)
	if math.Abs(got-want) > 0.15 {
		t.Errorf("Weibull(2,8) sample mean %v, want ~%v", got, want)
	}
}

func TestParetoSupport(t *testing.T) {
	s := New(7, "pareto")
	for i := 0; i < 1000; i++ {
		if v := s.Pareto(1.5, 2.5); v < 1.5 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := New(7, "bern")
	n := 50000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) hit rate %v", got)
	}
}

func TestBoundedBetaRange(t *testing.T) {
	s := New(7, "beta")
	for i := 0; i < 2000; i++ {
		v := s.BoundedBeta(0.5, 0.4)
		if v < 0 || v > 1 {
			t.Fatalf("BoundedBeta out of [0,1]: %v", v)
		}
	}
}

func TestZipfDistribution(t *testing.T) {
	s := New(7, "zipf")
	z := NewZipf(s, 100, 1.0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make([]int, 100)
	n := 100000
	for i := 0; i < n; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Item 0 should be about twice as popular as item 1 under theta=1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("Zipf(1) popularity ratio item0/item1 = %v, want ~2", ratio)
	}
	if counts[0] <= counts[50] {
		t.Error("Zipf head not more popular than middle")
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	s := New(9, "zipf0")
	z := NewZipf(s, 10, 0)
	counts := make([]int, 10)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		got := float64(c) / float64(n)
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("theta=0 item %d frequency %v, want ~0.1", i, got)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	s := New(1, "p")
	assertPanic(t, func() { NewZipf(s, 0, 1) })
	assertPanic(t, func() { NewZipf(s, 5, -1) })
	assertPanic(t, func() { s.Exp(0) })
	assertPanic(t, func() { s.Weibull(0, 1) })
	assertPanic(t, func() { s.Pareto(0, 1) })
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestPermAndShuffle(t *testing.T) {
	s := New(3, "perm")
	p := s.Perm(10)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
	xs := []int{0, 1, 2, 3, 4, 5}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}
