package placement

import (
	"testing"

	"trimcaching/internal/libgen"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// buildEval constructs a small evaluator: special-case library with
// modelsPerFamily models per ResNet family, M servers, K users.
func buildEval(t testing.TB, m, k, modelsPerFamily int, seed uint64) *Evaluator {
	t.Helper()
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(modelsPerFamily), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	cfg := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: m, NumUsers: k, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	ins, err := scenario.Generate(lib, cfg, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// countPlacements returns the number of (m, i) placements in p.
func countPlacements(p *Placement) int {
	n := 0
	for m := 0; m < p.NumServers(); m++ {
		n += p.Models(m).Count()
	}
	return n
}

// storageIndependent returns the storage server m would need if models were
// cached independently (no block deduplication): Σ_i x_{m,i}·D_i, the budget
// Independent and Popularity caching charge.
func storageIndependent(e *Evaluator, p *Placement, m int) int64 {
	var total int64
	for _, i := range p.ModelsOn(m) {
		total += e.ins.Library().ModelSize(i)
	}
	return total
}

// fig6Eval reproduces the paper's small exhaustive-search setting: 400 m
// area, M = 2 servers, K = 6 users, 9 models.
func fig6Eval(t testing.TB, seed uint64) *Evaluator {
	t.Helper()
	full, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(3), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := libgen.TakeStratified(full, 9, rng.New(seed+7))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	cfg := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 400, NumServers: 2, NumUsers: 6, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	ins, err := scenario.Generate(lib, cfg, rng.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

const gb = int64(1) << 30

func TestPlacementBasics(t *testing.T) {
	p := NewPlacement(3, 4)
	if p.NumServers() != 3 || p.NumModels() != 4 {
		t.Fatal("dims")
	}
	if p.Has(1, 2) {
		t.Fatal("fresh placement non-empty")
	}
	p.Set(1, 2)
	p.Set(1, 0)
	p.Set(2, 3)
	if !p.Has(1, 2) || !p.Has(2, 3) {
		t.Fatal("Set/Has mismatch")
	}
	on := p.ModelsOn(1)
	if len(on) != 2 || on[0] != 0 || on[1] != 2 {
		t.Fatalf("ModelsOn = %v", on)
	}
	if countPlacements(p) != 3 {
		t.Fatalf("count %d", countPlacements(p))
	}
	c := p.Clone()
	c.Unset(1, 2)
	if !p.Has(1, 2) || c.Has(1, 2) {
		t.Fatal("Clone not independent")
	}
}

func TestEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil); err == nil {
		t.Fatal("nil instance must error")
	}
	e := buildEval(t, 3, 5, 2, 1)
	if _, err := e.HitRatio(nil); err == nil {
		t.Fatal("nil placement must error")
	}
	wrong := NewPlacement(2, 2)
	if _, err := e.HitRatio(wrong); err == nil {
		t.Fatal("dim mismatch must error")
	}
	if _, err := e.ServerStorage(NewPlacement(3, e.Instance().NumModels()), 99); err == nil {
		t.Fatal("bad server index must error")
	}
	if err := e.CheckFeasible(NewPlacement(3, e.Instance().NumModels()), []int64{1}); err == nil {
		t.Fatal("capacity length mismatch must error")
	}
}

func TestHitRatioEmptyAndMonotone(t *testing.T) {
	e := buildEval(t, 4, 10, 3, 2)
	I := e.Instance().NumModels()
	p := NewPlacement(4, I)
	hr, err := e.HitRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	if hr != 0 {
		t.Fatalf("empty placement hit ratio %v", hr)
	}
	prev := 0.0
	for i := 0; i < I; i++ {
		p.Set(0, i)
		p.Set(2, i)
		hr, err := e.HitRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		if hr < prev-1e-12 {
			t.Fatalf("hit ratio decreased: %v -> %v", prev, hr)
		}
		if hr < 0 || hr > 1 {
			t.Fatalf("hit ratio %v outside [0,1]", hr)
		}
		prev = hr
	}
	if prev == 0 {
		t.Fatal("full placement on two servers served nothing; implausible")
	}
}

func TestHitRatioSubmodularity(t *testing.T) {
	// U(X ∪ {x}) − U(X) ≥ U(X' ∪ {x}) − U(X') for X ⊆ X' (Proposition 1).
	e := buildEval(t, 4, 10, 3, 3)
	M, I := 4, e.Instance().NumModels()
	src := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		small := NewPlacement(M, I)
		big := NewPlacement(M, I)
		for m := 0; m < M; m++ {
			for i := 0; i < I; i++ {
				r := src.Float64()
				if r < 0.2 {
					small.Set(m, i)
					big.Set(m, i)
				} else if r < 0.5 {
					big.Set(m, i)
				}
			}
		}
		am, ai := src.Intn(M), src.Intn(I)
		if big.Has(am, ai) {
			continue
		}
		uSmall, err := e.HitRatio(small)
		if err != nil {
			t.Fatal(err)
		}
		uBig, err := e.HitRatio(big)
		if err != nil {
			t.Fatal(err)
		}
		small.Set(am, ai)
		big.Set(am, ai)
		uSmallAdd, err := e.HitRatio(small)
		if err != nil {
			t.Fatal(err)
		}
		uBigAdd, err := e.HitRatio(big)
		if err != nil {
			t.Fatal(err)
		}
		if (uSmallAdd-uSmall)-(uBigAdd-uBig) < -1e-12 {
			t.Fatalf("submodularity violated: small gain %v < big gain %v",
				uSmallAdd-uSmall, uBigAdd-uBig)
		}
	}
}

func TestStorageSubmodularity(t *testing.T) {
	// g_m(X ∪ {x}) − g_m(X) ≥ g_m(X' ∪ {x}) − g_m(X') for X ⊆ X'
	// (Proposition 1, constraint side).
	e := buildEval(t, 2, 4, 4, 4)
	I := e.Instance().NumModels()
	src := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		small := NewPlacement(2, I)
		big := NewPlacement(2, I)
		for i := 0; i < I; i++ {
			r := src.Float64()
			if r < 0.2 {
				small.Set(0, i)
				big.Set(0, i)
			} else if r < 0.5 {
				big.Set(0, i)
			}
		}
		ai := src.Intn(I)
		if big.Has(0, ai) {
			continue
		}
		gS0, err := e.ServerStorage(small, 0)
		if err != nil {
			t.Fatal(err)
		}
		gB0, err := e.ServerStorage(big, 0)
		if err != nil {
			t.Fatal(err)
		}
		small.Set(0, ai)
		big.Set(0, ai)
		gS1, err := e.ServerStorage(small, 0)
		if err != nil {
			t.Fatal(err)
		}
		gB1, err := e.ServerStorage(big, 0)
		if err != nil {
			t.Fatal(err)
		}
		if (gS1-gS0)-(gB1-gB0) < 0 {
			t.Fatalf("storage submodularity violated: %d < %d", gS1-gS0, gB1-gB0)
		}
	}
}

func TestServerStorageDedupVsIndependent(t *testing.T) {
	e := buildEval(t, 2, 4, 3, 5)
	I := e.Instance().NumModels()
	p := NewPlacement(2, I)
	// Two same-family models share the pre-trained prefix.
	p.Set(0, 0)
	p.Set(0, 1)
	dedup, err := e.ServerStorage(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	indep := storageIndependent(e, p, 0)
	if dedup >= indep {
		t.Fatalf("dedup %d >= independent %d for same-family models", dedup, indep)
	}
	lib := e.Instance().Library()
	if indep != lib.ModelSize(0)+lib.ModelSize(1) {
		t.Fatalf("independent storage %d", indep)
	}
}

func TestCheckFeasible(t *testing.T) {
	e := buildEval(t, 2, 4, 2, 6)
	I := e.Instance().NumModels()
	p := NewPlacement(2, I)
	p.Set(0, 0)
	if err := e.CheckFeasible(p, UniformCapacities(2, gb)); err != nil {
		t.Fatalf("1 GB should fit one model: %v", err)
	}
	if err := e.CheckFeasible(p, UniformCapacities(2, 10)); err == nil {
		t.Fatal("10 bytes cannot fit a ResNet")
	}
}

func TestUniformCapacities(t *testing.T) {
	caps := UniformCapacities(4, 123)
	if len(caps) != 4 {
		t.Fatal("length")
	}
	for _, c := range caps {
		if c != 123 {
			t.Fatal("value")
		}
	}
}
