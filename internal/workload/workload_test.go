package workload

import (
	"math"
	"testing"

	"trimcaching/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.ZipfExponent = -1 },
		func(c *Config) { c.DeadlineMinS = -0.1 },
		func(c *Config) { c.DeadlineMaxS = c.DeadlineMinS - 0.1 },
		func(c *Config) { c.InferMinS = -0.1 },
		func(c *Config) { c.InferMaxS = c.InferMinS - 0.01 },
		// Even the fastest inference exceeds the loosest deadline: vacuous.
		func(c *Config) { c.InferMinS, c.InferMaxS = 1.2, 1.3 },
	}
	for i, mut := range muts {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d: expected error", i)
		}
	}
	// Zero-minimum deadlines and inference latencies overlapping the
	// deadline window are valid (such requests are just unservable).
	c := DefaultConfig()
	c.DeadlineMinS = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("zero-minimum deadline must validate: %v", err)
	}
	c = DefaultConfig()
	c.InferMaxS = 0.6
	if err := c.Validate(); err != nil {
		t.Fatalf("inference overlapping the deadline window must validate: %v", err)
	}
}

func TestGenerateInvalidSizes(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Generate(0, 10, cfg, rng.New(1)); err == nil {
		t.Fatal("zero users must error")
	}
	if _, err := Generate(10, 0, cfg, rng.New(1)); err == nil {
		t.Fatal("zero models must error")
	}
}

func TestProbRowsNormalized(t *testing.T) {
	for _, perm := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.PerUserPermutation = perm
		w, err := Generate(30, 30, cfg, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < w.NumUsers(); k++ {
			var sum float64
			for i := 0; i < w.NumModels(); i++ {
				p := w.Prob(k, i)
				if p < 0 || p > 1 {
					t.Fatalf("p[%d][%d] = %v", k, i, p)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("perm=%v user %d: probabilities sum to %v", perm, k, sum)
			}
		}
		if total := totalMass(w); math.Abs(total-30) > 1e-6 {
			t.Fatalf("total mass %v, want 30", total)
		}
	}
}

func TestGlobalRankingWhenNoPermutation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerUserPermutation = false
	w, err := Generate(5, 20, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Every user must share the same popularity ranking (but the ranking is
	// a random permutation of model indexes, decorrelated from family).
	for k := 1; k < w.NumUsers(); k++ {
		for i := 0; i < w.NumModels(); i++ {
			if w.Prob(k, i) != w.Prob(0, i) {
				t.Fatalf("user %d differs from user 0 at model %d", k, i)
			}
		}
	}
	descendingByIndex := true
	for i := 1; i < w.NumModels(); i++ {
		if w.Prob(0, i) > w.Prob(0, i-1) {
			descendingByIndex = false
			break
		}
	}
	if descendingByIndex {
		t.Fatal("global ranking should be a random permutation, not index order")
	}
}

func TestPerUserPermutationDiffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerUserPermutation = true
	w, err := Generate(10, 50, cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	identical := 0
	for k := 1; k < w.NumUsers(); k++ {
		same := true
		for i := 0; i < w.NumModels(); i++ {
			if w.Prob(k, i) != w.Prob(0, i) {
				same = false
				break
			}
		}
		if same {
			identical++
		}
	}
	if identical > 0 {
		t.Fatalf("%d users share user 0's permutation", identical)
	}
}

func TestDeadlinesWithinPaperRange(t *testing.T) {
	w, err := Generate(20, 30, DefaultConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < w.NumUsers(); k++ {
		for i := 0; i < w.NumModels(); i++ {
			d := w.DeadlineS(k, i)
			if d < 0.5 || d > 1.0 {
				t.Fatalf("deadline[%d][%d] = %v outside [0.5, 1]", k, i, d)
			}
			inf := w.InferS(k, i)
			if inf < 0.02 || inf > 0.1 {
				t.Fatalf("infer[%d][%d] = %v outside [0.02, 0.1]", k, i, inf)
			}
			if inf >= d {
				t.Fatalf("inference %v exceeds deadline %v", inf, d)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(10, 10, DefaultConfig(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(10, 10, DefaultConfig(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		for i := 0; i < 10; i++ {
			if a.Prob(k, i) != b.Prob(k, i) || a.DeadlineS(k, i) != b.DeadlineS(k, i) {
				t.Fatal("same seed produced different workloads")
			}
		}
	}
}
