package trimcaching

// Regression tests pinning the bitset reachability engine to the
// pre-refactor dense evaluator. The golden values below were captured from
// the []bool element-scan implementation (before internal/bitset existed)
// at the paper's default scenario; the word-packed engine must reproduce
// them bit-for-bit — the refactor changes the representation, never the
// arithmetic or its order.

import (
	"testing"

	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
)

// goldenRealizations and goldenFadingSeed parameterize the fading leg of
// the golden capture: realization r draws its gains from
// rng.New(goldenFadingSeed).SplitIndex("real", r).
const (
	goldenRealizations = 100
	goldenFadingSeed   = 7
)

var goldenCases = []struct {
	seed       uint64
	algo       string
	hit, faded float64
}{
	{1, "spec", 0.81832821184802185, 0.79745554511916295},
	{1, "gen", 0.81832821184802185, 0.7928095077468299},
	{1, "gen-naive", 0.81832821184802185, 0.7928095077468299},
	{1, "independent", 0.75022330651205127, 0.72181700992893627},
	{1, "popularity", 0.61105855610528814, 0.60287679274339923},
	{2, "spec", 0.95896509598134894, 0.92459273739137837},
	{2, "gen", 0.95896509598134894, 0.92352175769662082},
	{2, "gen-naive", 0.95896509598134894, 0.92352175769662082},
	{2, "independent", 0.86103463843859507, 0.82052669632072284},
	{2, "popularity", 0.72196372687946031, 0.70866003843078873},
	{3, "spec", 0.61149322048566046, 0.58170168391523636},
	{3, "gen", 0.61149322048566046, 0.57437005462179724},
	{3, "gen-naive", 0.61149322048566046, 0.57437005462179724},
	{3, "independent", 0.59676146288923793, 0.55883717907223951},
	{3, "popularity", 0.44185725804152509, 0.43378348210438494},
}

func TestEvaluatorEquivalenceGolden(t *testing.T) {
	lib, err := NewSpecialLibrary(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[uint64]*Scenario{}
	for _, tc := range goldenCases {
		sc, ok := scenarios[tc.seed]
		if !ok {
			if sc, err = BuildScenario(lib, DefaultScenarioConfig(), tc.seed); err != nil {
				t.Fatal(err)
			}
			scenarios[tc.seed] = sc
		}
		p, _, err := sc.Place(tc.algo)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := sc.HitRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		if hit != tc.hit {
			t.Errorf("seed=%d algo=%s: HitRatio = %.17g, pre-refactor golden %.17g",
				tc.seed, tc.algo, hit, tc.hit)
		}
		faded, err := sc.HitRatioUnderFading(p, goldenRealizations, goldenFadingSeed)
		if err != nil {
			t.Fatal(err)
		}
		if faded != tc.faded {
			t.Errorf("seed=%d algo=%s: HitRatioUnderFading = %.17g, pre-refactor golden %.17g",
				tc.seed, tc.algo, faded, tc.faded)
		}
	}
}

// denseHitRatio is the pre-refactor evaluator verbatim: scan every server
// per (user, model) request, count the first cached-and-reachable one.
func denseHitRatio(sc *Scenario, p *Placement, reach *scenario.Reach) float64 {
	ins := sc.instance
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	var hit float64
	for k := 0; k < K; k++ {
		for i := 0; i < I; i++ {
			for m := 0; m < M; m++ {
				servable := false
				if reach != nil {
					servable = reach.ServerMask(k, i).Has(m)
				} else {
					servable = ins.Reachable(m, k, i)
				}
				if p.Has(m, i) && servable {
					hit += ins.Prob(k, i)
					break
				}
			}
		}
	}
	return hit / ins.TotalMass()
}

// TestBitsetMatchesDenseReference cross-checks the packed evaluator against
// the scalar reference on fresh instances and fading realizations, exactly.
func TestBitsetMatchesDenseReference(t *testing.T) {
	lib, err := NewSpecialLibrary(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		sc, err := BuildScenario(lib, DefaultScenarioConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := sc.Place("gen")
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.HitRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := denseHitRatio(sc, p, nil); got != want {
			t.Errorf("seed=%d: HitRatio = %.17g, dense reference %.17g", seed, got, want)
		}
		ins := sc.instance
		src := rng.New(seed + 100)
		buf := ins.MakeReachBuffer()
		for r := 0; r < 5; r++ {
			gains := scenario.SampleGains(ins.NumServers(), ins.NumUsers(), src.SplitIndex("real", r))
			reach, err := ins.FadedReach(gains, buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.evaluator.HitRatioWithReach(p, reach)
			if err != nil {
				t.Fatal(err)
			}
			if want := denseHitRatio(sc, p, reach); got != want {
				t.Errorf("seed=%d r=%d: HitRatioWithReach = %.17g, dense reference %.17g",
					seed, r, got, want)
			}
		}
	}
}

// TestExplicitZeroScenarioConfig covers the has-value flags: uniform
// popularity (Zipf 0) and zero-minimum windows must be expressible.
func TestExplicitZeroScenarioConfig(t *testing.T) {
	lib, err := NewSpecialLibrary(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultScenarioConfig()
	cfg.ZipfExponent = 0
	cfg.ZipfExponentSet = true
	sc, err := BuildScenario(lib, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Zipf 0 is the uniform distribution: every user must spread its mass
	// equally over the models.
	ins := sc.instance
	I := ins.NumModels()
	for i := 1; i < I; i++ {
		if ins.Prob(0, i) != ins.Prob(0, 0) {
			t.Fatalf("Zipf 0 not uniform: p(0,0)=%v p(0,%d)=%v", ins.Prob(0, 0), i, ins.Prob(0, i))
		}
	}

	// Without the flag, zero keeps the default skew (backward compat).
	legacy := DefaultScenarioConfig()
	legacy.ZipfExponent = 0
	sc2, err := BuildScenario(lib, legacy, 5)
	if err != nil {
		t.Fatal(err)
	}
	uniform := true
	for i := 1; i < sc2.instance.NumModels(); i++ {
		if sc2.instance.Prob(0, i) != sc2.instance.Prob(0, 0) {
			uniform = false
			break
		}
	}
	if uniform {
		t.Fatal("legacy zero ZipfExponent should keep the default skew, got uniform")
	}

	// Zero-minimum deadline window.
	zcfg := DefaultScenarioConfig()
	zcfg.DeadlineMinS = 0
	zcfg.DeadlineMinSSet = true
	zcfg.DeadlineMaxS = 0.6
	zsc, err := BuildScenario(lib, zcfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	work := zsc.instance.Workload()
	sawBelowDefaultMin := false
	for k := 0; k < zsc.Users(); k++ {
		for i := 0; i < zsc.Models(); i++ {
			d := work.DeadlineS(k, i)
			if d < 0 || d > 0.6 {
				t.Fatalf("deadline %v outside [0, 0.6]", d)
			}
			if d < 0.5 {
				sawBelowDefaultMin = true
			}
		}
	}
	if !sawBelowDefaultMin {
		t.Fatal("zero-minimum deadlines never drew below the old 0.5 s floor")
	}
}
