package rng

import (
	"math"
	"testing"
)

func TestPoissonMoments(t *testing.T) {
	r := New(51)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		var sum, sumSq float64
		const n = 50000
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			if v < 0 {
				t.Fatalf("negative Poisson draw %v", v)
			}
			sum += v
			sumSq += v * v
		}
		gotMean := sum / n
		gotVar := sumSq/n - gotMean*gotMean
		if math.Abs(gotMean-mean)/mean > 0.05 {
			t.Fatalf("Poisson(%v) mean %v", mean, gotMean)
		}
		// For Poisson, variance == mean.
		if math.Abs(gotVar-mean)/mean > 0.10 {
			t.Fatalf("Poisson(%v) variance %v", mean, gotVar)
		}
	}
}

func TestPoissonDegenerate(t *testing.T) {
	r := New(52)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(53)
	cases := []struct {
		n int
		p float64
	}{
		{20, 0.3},   // exact path
		{2000, 0.4}, // normal-approximation path
	}
	for _, c := range cases {
		var sum float64
		const trials = 20000
		for i := 0; i < trials; i++ {
			v := r.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) = %d", c.n, c.p, v)
			}
			sum += float64(v)
		}
		want := float64(c.n) * c.p
		if got := sum / trials; math.Abs(got-want)/want > 0.03 {
			t.Fatalf("Binomial(%d,%v) mean %v, want ~%v", c.n, c.p, got, want)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	r := New(54)
	if r.Binomial(0, 0.5) != 0 || r.Binomial(-1, 0.5) != 0 {
		t.Fatal("non-positive n")
	}
	if r.Binomial(10, 0) != 0 || r.Binomial(10, -0.5) != 0 {
		t.Fatal("non-positive p")
	}
	if r.Binomial(10, 1) != 10 || r.Binomial(10, 1.5) != 10 {
		t.Fatal("p >= 1 must yield n")
	}
}

func TestSaltSeed(t *testing.T) {
	a := SaltSeed(1, "fig4a/q=0.5")
	b := SaltSeed(1, "fig4a/q=0.75")
	c := SaltSeed(2, "fig4a/q=0.5")
	if a == b || a == c {
		t.Fatal("salted seeds must differ across labels and base seeds")
	}
	if SaltSeed(1, "fig4a/q=0.5") != a {
		t.Fatal("SaltSeed must be deterministic")
	}
}

func TestZipfN(t *testing.T) {
	z, err := NewZipf(17, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(z.PMF()); n != 17 {
		t.Fatalf("len(PMF) = %d", n)
	}
}
