package sim

import (
	"math"
	"runtime"
	"testing"

	"trimcaching/internal/libgen"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

func testConfig(t *testing.T, algorithms []placement.Algorithm) TrialConfig {
	t.Helper()
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(4), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	return TrialConfig{
		Library: lib,
		Scenario: scenario.GenConfig{
			Topology: topology.Config{AreaSideM: 1000, NumServers: 4, NumUsers: 10, CoverageRadiusM: w.CoverageRadiusM},
			Wireless: w,
			Workload: workload.DefaultConfig(),
		},
		CapacityBytes: 1 << 29, // 512 MB
		Algorithms:    algorithms,
		Topologies:    6,
		Realizations:  25,
		Seed:          42,
	}
}

func defaultAlgs(t *testing.T) []placement.Algorithm {
	t.Helper()
	var algs []placement.Algorithm
	for _, name := range []string{"spec", "gen", "independent"} {
		a, err := placement.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	return algs
}

func TestValidate(t *testing.T) {
	cfg := testConfig(t, defaultAlgs(t))
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*TrialConfig){
		func(c *TrialConfig) { c.Library = nil },
		func(c *TrialConfig) { c.Algorithms = nil },
		func(c *TrialConfig) { c.CapacityBytes = -1 },
		func(c *TrialConfig) { c.Topologies = 0 },
		func(c *TrialConfig) { c.Realizations = 0 },
		func(c *TrialConfig) { c.Workers = -1 },
	}
	for i, mut := range muts {
		c := testConfig(t, defaultAlgs(t))
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d: expected error", i)
		}
	}
}

func TestRunShapes(t *testing.T) {
	cfg := testConfig(t, defaultAlgs(t))
	results, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Name] = true
		if r.HitRatio.N != cfg.Topologies {
			t.Fatalf("%s: %d samples, want %d", r.Name, r.HitRatio.N, cfg.Topologies)
		}
		if r.HitRatio.Mean < 0 || r.HitRatio.Mean > 1 {
			t.Fatalf("%s: hit ratio %v", r.Name, r.HitRatio.Mean)
		}
		if r.PlaceSeconds.Mean < 0 {
			t.Fatalf("%s: negative time", r.Name)
		}
	}
	if !names["TrimCaching Spec"] || !names["TrimCaching Gen"] || !names["Independent Caching"] {
		t.Fatalf("missing algorithm names: %v", names)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := testConfig(t, defaultAlgs(t)[:1])
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a[0].HitRatio.Mean-b[0].HitRatio.Mean) > 1e-12 {
		t.Fatalf("same seed, different means: %v vs %v", a[0].HitRatio.Mean, b[0].HitRatio.Mean)
	}
	if math.Abs(a[0].HitRatio.StdDev-b[0].HitRatio.StdDev) > 1e-12 {
		t.Fatal("same seed, different stddev")
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	cfg := testConfig(t, defaultAlgs(t)[:2])
	cfg.Workers = 1
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := range serial {
		if math.Abs(serial[a].HitRatio.Mean-parallel[a].HitRatio.Mean) > 1e-12 {
			t.Fatalf("%s: serial %v vs parallel %v", serial[a].Name,
				serial[a].HitRatio.Mean, parallel[a].HitRatio.Mean)
		}
	}
}

func TestRunOrderingSpecGenIndependent(t *testing.T) {
	// The paper's central comparison: Spec >= Gen >= Independent on
	// average in the special case with binding storage.
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(8), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, defaultAlgs(t))
	cfg.Library = lib
	cfg.CapacityBytes = 1 << 28 // 256 MB: binding
	cfg.Topologies = 8
	cfg.Realizations = 20
	results, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AlgoResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	spec := byName["TrimCaching Spec"].HitRatio.Mean
	gen := byName["TrimCaching Gen"].HitRatio.Mean
	ind := byName["Independent Caching"].HitRatio.Mean
	if spec < gen-0.02 {
		t.Fatalf("Spec %v well below Gen %v", spec, gen)
	}
	if gen <= ind {
		t.Fatalf("Gen %v not above Independent %v", gen, ind)
	}
}

func TestFadingMeanBelowAverageChannel(t *testing.T) {
	// Rayleigh fading can only lose QoS-constrained hits relative to the
	// average channel on average... not strictly, but the fading mean
	// should be close to (and typically below) the average-channel ratio.
	cfg := testConfig(t, defaultAlgs(t)[:1])
	results, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.HitRatio.Mean > r.AvgHitRatio.Mean+0.1 {
		t.Fatalf("fading mean %v implausibly above average-channel %v",
			r.HitRatio.Mean, r.AvgHitRatio.Mean)
	}
}

func TestEvaluateUnderFadingValidation(t *testing.T) {
	cfg := testConfig(t, defaultAlgs(t)[:1])
	ins, err := scenario.Generate(cfg.Library, cfg.Scenario, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewPlacement(ins.NumServers(), ins.NumModels())
	if _, err := EvaluateUnderFading(eval, []*placement.Placement{p}, 0, rng.New(4)); err == nil {
		t.Fatal("zero realizations must error")
	}
	if _, err := EvaluateUnderFading(eval, []*placement.Placement{p, nil}, 5, rng.New(4)); err == nil {
		t.Fatal("nil placement must error")
	}
	wrong := placement.NewPlacement(ins.NumServers()+1, ins.NumModels())
	if _, err := EvaluateUnderFading(eval, []*placement.Placement{wrong}, 5, rng.New(4)); err == nil {
		t.Fatal("placement dim mismatch must error")
	}
	hits, err := EvaluateUnderFading(eval, []*placement.Placement{p}, 5, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if hits[0] != 0 {
		t.Fatalf("empty placement hit ratio %v", hits[0])
	}
}

// TestEvaluateUnderFadingDeterministic verifies the parallel evaluator's
// contract: results are bit-identical to a sequential single-threaded
// reference for any worker count, because realization r draws its gains
// from src.SplitIndex("real", r) and the reduction runs in realization
// order.
func TestEvaluateUnderFadingDeterministic(t *testing.T) {
	cfg := testConfig(t, defaultAlgs(t))
	ins, err := scenario.Generate(cfg.Library, cfg.Scenario, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	caps := placement.UniformCapacities(ins.NumServers(), cfg.CapacityBytes)
	var placements []*placement.Placement
	for _, alg := range cfg.Algorithms {
		p, err := alg.Place(eval, caps)
		if err != nil {
			t.Fatal(err)
		}
		placements = append(placements, p)
	}

	const realizations = 64
	const seed = 1234

	// Sequential reference: same per-realization splits, plain loop.
	ref := make([]float64, len(placements))
	src := rng.New(seed)
	buf := ins.MakeReachBuffer()
	for r := 0; r < realizations; r++ {
		gains := scenario.SampleGains(ins.NumServers(), ins.NumUsers(), src.SplitIndex("real", r))
		reach, err := ins.FadedReach(gains, buf)
		if err != nil {
			t.Fatal(err)
		}
		for a, p := range placements {
			hr, err := eval.HitRatioWithReach(p, reach)
			if err != nil {
				t.Fatal(err)
			}
			ref[a] += hr
		}
	}
	for a := range ref {
		ref[a] /= realizations
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, err := EvaluateUnderFadingWorkers(eval, placements, realizations, workers, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for a := range placements {
			if got[a] != ref[a] {
				t.Fatalf("workers=%d placement %d: got %.17g, reference %.17g (must be bit-identical)",
					workers, a, got[a], ref[a])
			}
		}
	}
}
