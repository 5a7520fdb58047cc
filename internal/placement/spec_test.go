package placement

import (
	"errors"
	"math"
	"testing"
)

func TestSpecFeasible(t *testing.T) {
	e := buildEval(t, 4, 12, 4, 60)
	caps := UniformCapacities(4, gb/2)
	p, err := TrimCachingSpec(e, caps, DefaultSpecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CheckFeasible(p, caps); err != nil {
		t.Fatal(err)
	}
	hr, err := e.HitRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	if hr <= 0 {
		t.Fatalf("spec hit ratio %v", hr)
	}
}

func TestSpecApproximationGuarantee(t *testing.T) {
	// Theorem 2: U(spec) >= (1-ε)/2 · U(optimal). Verified against the
	// exhaustive optimum on Fig. 6-sized instances.
	for seed := uint64(70); seed < 76; seed++ {
		e := fig6Eval(t, seed)
		caps := UniformCapacities(2, 100*1000*1000) // 0.1 GB, §VII-D
		opt, err := Exhaustive(e, caps, ExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hrOpt, err := e.HitRatio(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.1} {
			p, err := TrimCachingSpec(e, caps, SpecOptions{Epsilon: eps, MaxCombos: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.CheckFeasible(p, caps); err != nil {
				t.Fatal(err)
			}
			hr, err := e.HitRatio(p)
			if err != nil {
				t.Fatal(err)
			}
			if hr < (1-eps)/2*hrOpt-1e-9 {
				t.Fatalf("seed %d eps %v: spec %v < (1-eps)/2 * opt %v", seed, eps, hr, hrOpt)
			}
			if hr > hrOpt+1e-9 {
				t.Fatalf("seed %d eps %v: spec %v exceeds optimum %v", seed, eps, hr, hrOpt)
			}
		}
	}
}

func TestSpecNearOptimalInPractice(t *testing.T) {
	// Fig. 6(a): the paper reports Spec matching the optimum on the small
	// instance. Check it lands within 5% on average.
	var ratioSum float64
	const trials = 6
	for seed := uint64(80); seed < 80+trials; seed++ {
		e := fig6Eval(t, seed)
		caps := UniformCapacities(2, 100*1000*1000)
		opt, err := Exhaustive(e, caps, ExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hrOpt, err := e.HitRatio(opt)
		if err != nil {
			t.Fatal(err)
		}
		if hrOpt == 0 {
			ratioSum++
			continue
		}
		p, err := TrimCachingSpec(e, caps, SpecOptions{Epsilon: 0, MaxCombos: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := e.HitRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		ratioSum += hr / hrOpt
	}
	if avg := ratioSum / trials; avg < 0.95 {
		t.Fatalf("spec/optimal ratio %v < 0.95", avg)
	}
}

func TestSpecBeatsOrMatchesGenOnAverage(t *testing.T) {
	// Fig. 4: Spec outperforms Gen in the special case (on average).
	var sumSpec, sumGen float64
	for seed := uint64(90); seed < 100; seed++ {
		e := buildEval(t, 4, 12, 8, seed)
		caps := UniformCapacities(4, gb/4)
		spec, err := TrimCachingSpec(e, caps, DefaultSpecOptions())
		if err != nil {
			t.Fatal(err)
		}
		gen, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		hrS, err := e.HitRatio(spec)
		if err != nil {
			t.Fatal(err)
		}
		hrG, err := e.HitRatio(gen)
		if err != nil {
			t.Fatal(err)
		}
		sumSpec += hrS
		sumGen += hrG
	}
	if sumSpec < sumGen*0.97 {
		t.Fatalf("spec average %v well below gen %v", sumSpec/10, sumGen/10)
	}
}

func TestSpecZeroCapacity(t *testing.T) {
	e := buildEval(t, 3, 6, 2, 101)
	p, err := TrimCachingSpec(e, UniformCapacities(3, 0), DefaultSpecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if countPlacements(p) != 0 {
		t.Fatal("placed models with zero capacity")
	}
}

func TestSpecValidation(t *testing.T) {
	e := buildEval(t, 2, 4, 2, 102)
	if _, err := TrimCachingSpec(e, []int64{1}, DefaultSpecOptions()); err == nil {
		t.Fatal("capacity length mismatch must error")
	}
	if _, err := TrimCachingSpec(e, UniformCapacities(2, -1), DefaultSpecOptions()); err == nil {
		t.Fatal("negative capacity must error")
	}
	if _, err := TrimCachingSpec(e, UniformCapacities(2, gb), SpecOptions{Epsilon: -0.1}); err == nil {
		t.Fatal("negative epsilon must error")
	}
	if _, err := TrimCachingSpec(e, UniformCapacities(2, gb), SpecOptions{Epsilon: 1.5}); err == nil {
		t.Fatal("epsilon > 1 must error")
	}
	if _, err := TrimCachingSpec(e, UniformCapacities(2, gb), SpecOptions{Epsilon: math.NaN()}); err == nil {
		t.Fatal("NaN epsilon must error")
	}
}

func TestSpecEpsilonComparable(t *testing.T) {
	// Smaller ε cannot hurt the PER-SERVER sub-problem (Prop. 4), but the
	// successive greedy is not monotone in per-server quality, so globally
	// we only require statistical equivalence: over several seeds the
	// tight-ε total must stay within 2% of the loose-ε total.
	var sumTight, sumLoose float64
	for seed := uint64(110); seed < 118; seed++ {
		e := buildEval(t, 3, 10, 6, seed)
		caps := UniformCapacities(3, gb/4)
		tight, err := TrimCachingSpec(e, caps, SpecOptions{Epsilon: 0.05, MaxCombos: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		loose, err := TrimCachingSpec(e, caps, SpecOptions{Epsilon: 0.9, MaxCombos: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		hrT, err := e.HitRatio(tight)
		if err != nil {
			t.Fatal(err)
		}
		hrL, err := e.HitRatio(loose)
		if err != nil {
			t.Fatal(err)
		}
		sumTight += hrT
		sumLoose += hrL
	}
	if sumTight < 0.98*sumLoose {
		t.Fatalf("tight-eps total %v far below loose-eps total %v", sumTight, sumLoose)
	}
}

func TestExhaustiveMatchesBruteForceSemantics(t *testing.T) {
	// On an instance where everything fits, exhaustive must reach the
	// saturation hit ratio.
	e := fig6Eval(t, 120)
	caps := UniformCapacities(2, 100*gb)
	p, err := Exhaustive(e, caps, ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := NewPlacement(2, e.Instance().NumModels())
	for m := 0; m < 2; m++ {
		for i := 0; i < e.Instance().NumModels(); i++ {
			full.Set(m, i)
		}
	}
	hrOpt, err := e.HitRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	hrFull, err := e.HitRatio(full)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hrOpt-hrFull) > 1e-9 {
		t.Fatalf("optimal %v != saturation %v under unbounded storage", hrOpt, hrFull)
	}
}

func TestExhaustiveDominatesHeuristics(t *testing.T) {
	for seed := uint64(130); seed < 134; seed++ {
		e := fig6Eval(t, seed)
		caps := UniformCapacities(2, 100*1000*1000)
		opt, err := Exhaustive(e, caps, ExhaustiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CheckFeasible(opt, caps); err != nil {
			t.Fatal(err)
		}
		hrOpt, err := e.HitRatio(opt)
		if err != nil {
			t.Fatal(err)
		}
		for name := range map[string]bool{"spec": true, "gen": true, "independent": true} {
			alg, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := alg.Place(e, caps)
			if err != nil {
				t.Fatal(err)
			}
			hr, err := e.HitRatio(p)
			if err != nil {
				t.Fatal(err)
			}
			if hr > hrOpt+1e-9 {
				t.Fatalf("seed %d: %s hit ratio %v exceeds optimal %v", seed, name, hr, hrOpt)
			}
		}
	}
}

func TestExhaustiveGuards(t *testing.T) {
	e := buildEval(t, 2, 4, 2, 140)
	if _, err := Exhaustive(e, []int64{1}, ExhaustiveOptions{}); err == nil {
		t.Fatal("capacity length mismatch must error")
	}
	// State-space guard.
	big := fig6Eval(t, 141)
	_, err := Exhaustive(big, UniformCapacities(2, 100*gb), ExhaustiveOptions{MaxStates: 4})
	var tooLarge *ErrSearchTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("want ErrSearchTooLarge, got %v", err)
	}
	if tooLarge.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"spec", "gen", "gen-naive", "independent", "optimal"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Name() == "" {
			t.Fatalf("%s: empty display name", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}
