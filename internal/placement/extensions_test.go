package placement

import (
	"testing"
)

func TestPopularityFeasibleAndUniform(t *testing.T) {
	e := buildEval(t, 4, 12, 6, 200)
	caps := UniformCapacities(4, gb/4)
	p, err := PopularityCaching(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	// Popularity charges full sizes: the independent budget must hold.
	for m := 0; m < 4; m++ {
		used := storageIndependent(e, p, m)
		if used > caps[m] {
			t.Fatalf("server %d uses %d > %d", m, used, caps[m])
		}
	}
	hr, err := e.HitRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	if hr <= 0 {
		t.Fatalf("popularity hit ratio %v", hr)
	}
}

func TestPopularityCachesSameModelsEverywhere(t *testing.T) {
	// Uncoordinated: with a shared global ranking every server should cache
	// (roughly) the same top models — the defining behaviour vs the
	// coordinated Independent baseline.
	e := buildEval(t, 4, 12, 6, 201)
	caps := UniformCapacities(4, gb/4)
	p, err := PopularityCaching(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	first := p.ModelsOn(0)
	if len(first) == 0 {
		t.Fatal("server 0 cached nothing")
	}
	same := 0
	for m := 1; m < 4; m++ {
		on := p.ModelsOn(m)
		if len(on) == len(first) {
			match := true
			for i := range on {
				if on[i] != first[i] {
					match = false
					break
				}
			}
			if match {
				same++
			}
		}
	}
	if same == 0 {
		t.Fatal("no server duplicated server 0's cache; popularity should duplicate")
	}
}

func TestPopularityBelowCoordinatedIndependent(t *testing.T) {
	var popSum, indSum float64
	for seed := uint64(210); seed < 218; seed++ {
		e := buildEval(t, 4, 12, 8, seed)
		caps := UniformCapacities(4, gb/4)
		pop, err := PopularityCaching(e, caps)
		if err != nil {
			t.Fatal(err)
		}
		ind, err := IndependentCaching(e, caps)
		if err != nil {
			t.Fatal(err)
		}
		hrP, err := e.HitRatio(pop)
		if err != nil {
			t.Fatal(err)
		}
		hrI, err := e.HitRatio(ind)
		if err != nil {
			t.Fatal(err)
		}
		popSum += hrP
		indSum += hrI
	}
	if popSum >= indSum {
		t.Fatalf("popularity total %v not below coordinated independent %v", popSum, indSum)
	}
}

func TestBlockViewRoundTrip(t *testing.T) {
	e := buildEval(t, 3, 8, 4, 220)
	lib := e.Instance().Library()
	caps := UniformCapacities(3, gb/2)
	p, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	y, err := BlockView(lib, p)
	if err != nil {
		t.Fatal(err)
	}
	// Block-view storage must equal the deduplicated model-view storage
	// (the paper's equivalence of P1.1 and P1.2 constraints).
	for m := 0; m < 3; m++ {
		want, err := e.ServerStorage(p, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := y.StorageBytes(lib, m); got != want {
			t.Fatalf("server %d: block storage %d != model storage %d", m, got, want)
		}
	}
	// Converting back must recover at least every cached model (it may
	// surface extra models whose blocks happen to all be present).
	back, err := ModelView(lib, y)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		for _, i := range p.ModelsOn(m) {
			if !back.Has(m, i) {
				t.Fatalf("round trip lost model %d on server %d", i, m)
			}
		}
	}
	// And the recovered placement can only serve at least as much.
	hrP, err := e.HitRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	hrB, err := e.HitRatio(back)
	if err != nil {
		t.Fatal(err)
	}
	if hrB < hrP-1e-12 {
		t.Fatalf("block round trip lost hit ratio: %v -> %v", hrP, hrB)
	}
}

func TestBlockViewFreeModels(t *testing.T) {
	// If a server caches models whose blocks jointly include ALL blocks of
	// a third model, the block view marks that model cached for free.
	e := buildEval(t, 2, 4, 3, 221)
	lib := e.Instance().Library()
	// Find two same-family models a, b and a third c of the same family
	// whose freeze depth is <= both: then c's shared prefix is covered, but
	// its specific blocks are not, so c must NOT appear. This asserts
	// ModelView requires *every* block.
	p := NewPlacement(2, lib.NumModels())
	p.Set(0, 0)
	p.Set(0, 1)
	y, err := BlockView(lib, p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ModelView(lib, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lib.NumModels(); i++ {
		if i == 0 || i == 1 {
			if !back.Has(0, i) {
				t.Fatalf("model %d lost", i)
			}
			continue
		}
		if back.Has(0, i) && lib.SpecificSize(i) > 0 {
			t.Fatalf("model %d with private blocks appeared for free", i)
		}
	}
}

func TestBlockViewValidation(t *testing.T) {
	e := buildEval(t, 2, 4, 2, 222)
	lib := e.Instance().Library()
	if _, err := BlockView(nil, NewPlacement(1, 1)); err == nil {
		t.Fatal("nil library must error")
	}
	if _, err := BlockView(lib, nil); err == nil {
		t.Fatal("nil placement must error")
	}
	if _, err := BlockView(lib, NewPlacement(2, lib.NumModels()+1)); err == nil {
		t.Fatal("model count mismatch must error")
	}
	if _, err := ModelView(lib, nil); err == nil {
		t.Fatal("nil block placement must error")
	}
	if _, err := ModelView(lib, NewBlockPlacement(2, lib.NumBlocks()+1)); err == nil {
		t.Fatal("block count mismatch must error")
	}
}

func TestRefineNeverWorseAlwaysFeasible(t *testing.T) {
	for seed := uint64(230); seed < 236; seed++ {
		e := buildEval(t, 4, 10, 6, seed)
		caps := UniformCapacities(4, gb/4)
		base, err := PopularityCaching(e, caps)
		if err != nil {
			t.Fatal(err)
		}
		hrBase, err := e.HitRatio(base)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := Refine(e, caps, base, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CheckFeasible(refined, caps); err != nil {
			t.Fatal(err)
		}
		hrRef, err := e.HitRatio(refined)
		if err != nil {
			t.Fatal(err)
		}
		if hrRef < hrBase-1e-12 {
			t.Fatalf("seed %d: refine decreased hit ratio %v -> %v", seed, hrBase, hrRef)
		}
	}
}

func TestRefineImprovesWeakBaseline(t *testing.T) {
	// Refinement must find strict improvements over the uncoordinated
	// popularity baseline on at least some instances.
	improved := false
	for seed := uint64(240); seed < 246 && !improved; seed++ {
		e := buildEval(t, 4, 10, 6, seed)
		caps := UniformCapacities(4, gb/4)
		base, err := PopularityCaching(e, caps)
		if err != nil {
			t.Fatal(err)
		}
		hrBase, err := e.HitRatio(base)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := Refine(e, caps, base, 3)
		if err != nil {
			t.Fatal(err)
		}
		hrRef, err := e.HitRatio(refined)
		if err != nil {
			t.Fatal(err)
		}
		if hrRef > hrBase+0.01 {
			improved = true
		}
	}
	if !improved {
		t.Fatal("refine never improved the popularity baseline")
	}
}

func TestRefineValidation(t *testing.T) {
	e := buildEval(t, 2, 4, 2, 250)
	caps := UniformCapacities(2, gb)
	if _, err := Refine(e, caps, nil, 1); err == nil {
		t.Fatal("nil placement must error")
	}
	// Infeasible start must be rejected.
	p := NewPlacement(2, e.Instance().NumModels())
	for i := 0; i < e.Instance().NumModels(); i++ {
		p.Set(0, i)
	}
	if _, err := Refine(e, UniformCapacities(2, 10), p, 1); err == nil {
		t.Fatal("infeasible start must error")
	}
}

func TestRefinedAlgorithmWrapper(t *testing.T) {
	e := buildEval(t, 3, 8, 4, 251)
	caps := UniformCapacities(3, gb/4)
	alg := RefinedAlgorithm{Base: PopularityAlgorithm{}}
	if alg.Name() != "Popularity Caching + refine" {
		t.Fatalf("name %q", alg.Name())
	}
	p, err := alg.Place(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CheckFeasible(p, caps); err != nil {
		t.Fatal(err)
	}
}

func TestRatioGreedyFeasibleAndCompetitive(t *testing.T) {
	var ratioSum, genSum float64
	for seed := uint64(260); seed < 268; seed++ {
		e := buildEval(t, 4, 12, 8, seed)
		caps := UniformCapacities(4, gb/4)
		ratio, err := TrimCachingGenRatio(e, caps)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CheckFeasible(ratio, caps); err != nil {
			t.Fatal(err)
		}
		gen, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		hrR, err := e.HitRatio(ratio)
		if err != nil {
			t.Fatal(err)
		}
		hrG, err := e.HitRatio(gen)
		if err != nil {
			t.Fatal(err)
		}
		ratioSum += hrR
		genSum += hrG
	}
	// Cost-benefit must stay within 15% of plain greedy (it often wins
	// under tight budgets, but has no guarantee).
	if ratioSum < 0.85*genSum {
		t.Fatalf("ratio greedy total %v far below gen %v", ratioSum, genSum)
	}
}

func TestRatioAlgorithmRegistered(t *testing.T) {
	alg, err := ByName("gen-ratio")
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() == "" {
		t.Fatal("empty name")
	}
}
