package placement

import (
	"math"
	"testing"
)

func TestGenFeasibleAndPositive(t *testing.T) {
	e := buildEval(t, 4, 12, 4, 10)
	caps := UniformCapacities(4, gb/2)
	for _, lazy := range []bool{false, true} {
		p, err := TrimCachingGen(e, caps, GenOptions{Lazy: lazy})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CheckFeasible(p, caps); err != nil {
			t.Fatalf("lazy=%v: %v", lazy, err)
		}
		hr, err := e.HitRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		if hr <= 0 {
			t.Fatalf("lazy=%v: greedy achieved hit ratio %v", lazy, hr)
		}
	}
}

func TestLazyMatchesNaive(t *testing.T) {
	// Lazy evaluation is an exact acceleration of Algorithm 3 up to
	// tie-breaking among equal gains; the achieved hit ratio must match.
	for seed := uint64(20); seed < 28; seed++ {
		e := buildEval(t, 3, 8, 3, seed)
		caps := UniformCapacities(3, gb/2)
		naive, err := TrimCachingGen(e, caps, GenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		hrN, err := e.HitRatio(naive)
		if err != nil {
			t.Fatal(err)
		}
		hrL, err := e.HitRatio(lazy)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(hrN-hrL) > 1e-9 {
			t.Fatalf("seed %d: naive %v vs lazy %v", seed, hrN, hrL)
		}
	}
}

// TestLazyMatchesNaivePlacementsExactly pins the certified-but-unfit
// handling: unfit candidates are dropped permanently (g_m(X_m ∪ {i}) only
// grows, so they can never fit later), and under capacities tight enough
// to exercise that path the lazy solver must still produce the exact
// placement the naive rescan produces — not merely the same hit ratio.
// (Both tie-break equal gains toward the lexicographically smallest
// (m, i).)
func TestLazyMatchesNaivePlacementsExactly(t *testing.T) {
	for seed := uint64(20); seed < 26; seed++ {
		for _, q := range []int64{gb / 16, gb / 8, gb / 2, 2 * gb} {
			e := buildEval(t, 4, 10, 3, seed)
			caps := UniformCapacities(4, q)
			naive, err := TrimCachingGen(e, caps, GenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
			if err != nil {
				t.Fatal(err)
			}
			if !placementsEqual(naive, lazy) {
				t.Fatalf("seed %d cap %d: lazy placement differs from naive", seed, q)
			}
		}
	}
}

// TestPersistentHeapStableAcrossSolves pins the persistent commit heap's
// lifecycle on one evaluator: repeated solves (which consume working
// copies), a different algorithm sharing the heap (storage mode does not
// affect u0 keys), and an explicit InvalidateHeap must all reproduce the
// placement a fresh evaluator computes.
func TestPersistentHeapStableAcrossSolves(t *testing.T) {
	e := buildEval(t, 4, 12, 3, 28)
	caps := UniformCapacities(4, gb/4)
	first, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IndependentCaching(e, caps); err != nil {
		t.Fatal(err)
	}
	second, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if !placementsEqual(first, second) {
		t.Fatal("re-solve on the persistent heap differs from the first solve")
	}
	e.InvalidateHeap()
	third, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if !placementsEqual(first, third) {
		t.Fatal("solve after InvalidateHeap differs from the first solve")
	}
	fresh := buildEval(t, 4, 12, 3, 28)
	cold, err := TrimCachingGen(fresh, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if !placementsEqual(first, cold) {
		t.Fatal("persistent-heap solve differs from a fresh evaluator's solve")
	}
}

func TestGenBeatsIndependent(t *testing.T) {
	// The paper's headline: parameter-sharing placement dominates
	// independent caching under tight storage. With a binding capacity the
	// greedy with deduplicated storage can only fit more.
	var wins, ties, losses int
	for seed := uint64(30); seed < 40; seed++ {
		e := buildEval(t, 4, 12, 8, seed)
		caps := UniformCapacities(4, gb/4)
		gen, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		ind, err := IndependentCaching(e, caps)
		if err != nil {
			t.Fatal(err)
		}
		hrG, err := e.HitRatio(gen)
		if err != nil {
			t.Fatal(err)
		}
		hrI, err := e.HitRatio(ind)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case hrG > hrI+1e-9:
			wins++
		case hrG < hrI-1e-9:
			losses++
		default:
			ties++
		}
	}
	if wins < losses || wins == 0 {
		t.Fatalf("TrimCaching Gen vs Independent: %d wins, %d ties, %d losses", wins, ties, losses)
	}
}

func TestIndependentRespectsFullSizeBudget(t *testing.T) {
	e := buildEval(t, 3, 8, 3, 50)
	caps := UniformCapacities(3, gb/2)
	p, err := IndependentCaching(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		used := storageIndependent(e, p, m)
		if used > caps[m] {
			t.Fatalf("server %d: independent storage %d > %d", m, used, caps[m])
		}
	}
}

func TestGreedyZeroCapacity(t *testing.T) {
	e := buildEval(t, 3, 8, 2, 51)
	caps := UniformCapacities(3, 0)
	for _, lazy := range []bool{false, true} {
		p, err := TrimCachingGen(e, caps, GenOptions{Lazy: lazy})
		if err != nil {
			t.Fatal(err)
		}
		if countPlacements(p) != 0 {
			t.Fatalf("lazy=%v: placed %d models with zero capacity", lazy, countPlacements(p))
		}
	}
	p, err := IndependentCaching(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	if countPlacements(p) != 0 {
		t.Fatal("independent placed models with zero capacity")
	}
}

func TestGreedyHugeCapacityCachesEverythingUseful(t *testing.T) {
	e := buildEval(t, 3, 8, 3, 52)
	caps := UniformCapacities(3, 100*gb)
	p, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := e.HitRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	// With unbounded storage the greedy must serve every servable request:
	// compare against the all-ones placement.
	full := NewPlacement(3, e.Instance().NumModels())
	for m := 0; m < 3; m++ {
		for i := 0; i < e.Instance().NumModels(); i++ {
			full.Set(m, i)
		}
	}
	hrFull, err := e.HitRatio(full)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hr-hrFull) > 1e-9 {
		t.Fatalf("greedy %v vs saturation %v with unbounded storage", hr, hrFull)
	}
}

func TestGreedyCapacityValidation(t *testing.T) {
	e := buildEval(t, 2, 4, 2, 53)
	if _, err := TrimCachingGen(e, []int64{1}, GenOptions{}); err == nil {
		t.Fatal("capacity length mismatch must error")
	}
	if _, err := TrimCachingGen(e, []int64{-1, 5}, GenOptions{}); err == nil {
		t.Fatal("negative capacity must error")
	}
	if _, err := IndependentCaching(e, []int64{1}); err == nil {
		t.Fatal("capacity length mismatch must error")
	}
}

func TestGenNeverPlacesUselessModels(t *testing.T) {
	e := buildEval(t, 3, 8, 3, 54)
	caps := UniformCapacities(3, gb)
	p, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every placed (m,i) must serve at least one reachable request.
	ins := e.Instance()
	for m := 0; m < 3; m++ {
		for _, i := range p.ModelsOn(m) {
			any := false
			for k := 0; k < ins.NumUsers(); k++ {
				if ins.Reachable(m, k, i) {
					any = true
					break
				}
			}
			if !any {
				t.Fatalf("placed useless model %d on server %d", i, m)
			}
		}
	}
}
