package placement

import (
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/modellib"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// Micro-benchmarks for the algorithmic kernels of the paper. The
// repository-level bench_test.go benchmarks whole figures; these isolate
// the inner loops.

func benchEval(b *testing.B) *Evaluator {
	b.Helper()
	return buildEval(b, 10, 30, 10, 999)
}

func BenchmarkGainEvaluation(b *testing.B) {
	e := benchEval(b)
	s, err := newGreedyState(e, UniformCapacities(10, gb), true)
	if err != nil {
		b.Fatal(err)
	}
	// Mark user 0's request for every model served, so every gain runs the
	// masked sum instead of reading the memoized u0.
	for i := 0; i < 30; i++ {
		s.coveredMask(i).Set(0)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for m := 0; m < 10; m++ {
			for i := 0; i < 30; i++ {
				_ = s.gain(m, i)
			}
		}
	}
}

func BenchmarkIncrementalCost(b *testing.B) {
	e := benchEval(b)
	s, err := newGreedyState(e, UniformCapacities(10, gb), true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for m := 0; m < 10; m++ {
			for i := 0; i < 30; i++ {
				_ = s.cost(m, i)
			}
		}
	}
}

func BenchmarkRoundingDP(b *testing.B) {
	src := rng.New(1)
	items := make([]knapsackItem, 30)
	for i := range items {
		items[i] = knapsackItem{
			id:     i,
			value:  src.Uniform(0.001, 1),
			weight: int64(src.IntRange(1_000_000, 60_000_000)),
		}
	}
	scratch := &dpScratch{}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_, _ = solveKnapsack(items, 500_000_000, 0.1, scratch)
	}
}

func BenchmarkBranchAndBound(b *testing.B) {
	src := rng.New(2)
	items := make([]knapsackItem, 25)
	for i := range items {
		items[i] = knapsackItem{
			id:     i,
			value:  src.Uniform(0.001, 1),
			weight: int64(src.IntRange(1_000_000, 60_000_000)),
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_, _ = solveKnapsack(items, 400_000_000, 0, nil)
	}
}

// The place-paper operating point (cmd/bench, §VII-A): 30 models drawn
// stratified from a 3×100 ResNet pool with library seed 1, M = 10, K = 30,
// 1 GB caps, 1 Gb/s backhaul. placePaperEval is the topology of the
// workload's first trial at seed 1.
const placePaperCapacity = 1_000_000_000

func placePaperLib(t testing.TB) *modellib.Library {
	t.Helper()
	pool, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(100), rng.New(1).Split("special-pool"))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := libgen.TakeStratified(pool, 30, rng.New(1).Split("special-take"))
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func placePaperEval(t testing.TB) *Evaluator {
	t.Helper()
	w := wireless.DefaultConfig()
	w.BackhaulBps = 1e9
	cfg := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: 10, NumUsers: 30, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	src := rng.New(1).Split("trials").SplitIndex("trial", 0).Split("instance")
	ins, err := scenario.Generate(placePaperLib(t), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// BenchmarkComboEnumeration builds A over every model of the place-paper
// library at its 1 GB cap. The shared-block index is per Spec call, not
// per enumeration, so it is built outside the timed loop.
func BenchmarkComboEnumeration(b *testing.B) {
	lib := placePaperLib(b)
	x := newSharedIndex(lib)
	models := allModels(lib)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := enumerateCombos(x, models, placePaperCapacity, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecPlacePaper is one Spec solve of a place-paper trial (ε =
// 0.1, MaxCombos 2^20): cmd/bench's per-layer placement.spec_ms_p50,
// reproduced with go test alone.
func BenchmarkSpecPlacePaper(b *testing.B) {
	e := placePaperEval(b)
	caps := UniformCapacities(10, placePaperCapacity)
	opts := SpecOptions{Epsilon: 0.1, MaxCombos: 1 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := TrimCachingSpec(e, caps, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpecFullSolve(b *testing.B) {
	e := benchEval(b)
	caps := UniformCapacities(10, gb/2)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := TrimCachingSpec(e, caps, DefaultSpecOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveSmall(b *testing.B) {
	e := fig6Eval(b, 3)
	caps := UniformCapacities(2, 100_000_000)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Exhaustive(e, caps, ExhaustiveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefinePass(b *testing.B) {
	e := benchEval(b)
	caps := UniformCapacities(10, gb/2)
	base, err := PopularityCaching(e, caps)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Refine(e, caps, base, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// buildLoRAEval constructs the LoRA-regime evaluator of §I: one shared
// foundation model, I adapters, K users — the scale the bitset engine
// targets (K=300, I=1000 by default in BenchmarkLoRA*).
func buildLoRAEval(b *testing.B, servers, users, adapters int, seed uint64) *Evaluator {
	b.Helper()
	lib, err := libgen.GenerateLoRA(libgen.DefaultLoRAConfig(adapters))
	if err != nil {
		b.Fatal(err)
	}
	w := wireless.DefaultConfig()
	cfg := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: servers, NumUsers: users, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	ins, err := scenario.Generate(lib, cfg, rng.New(seed))
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEvaluator(ins)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchReachAndPlacement prepares one fading realization and a greedy
// placement for the HitRatioWithReach benchmarks.
func benchReachAndPlacement(b *testing.B, e *Evaluator) (*scenario.Reach, *Placement) {
	b.Helper()
	ins := e.Instance()
	gains := scenario.SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(7))
	reach, err := ins.FadedReach(gains, nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err := TrimCachingGen(e, UniformCapacities(ins.NumServers(), gb/2), GenOptions{Lazy: true})
	if err != nil {
		b.Fatal(err)
	}
	return reach, p
}

// denseHitRatioWithReach is the pre-refactor evaluator verbatim: []bool
// bitmaps for reachability and placement, scanning every server per
// (user, model) request. It exists so the benchmarks quantify the bitset
// engine's speedup against the exact representation it replaced.
func denseHitRatioWithReach(e *Evaluator, cached, reach []bool) float64 {
	ins := e.Instance()
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	var hit float64
	for k := 0; k < K; k++ {
		for i := 0; i < I; i++ {
			for m := 0; m < M; m++ {
				if cached[m*I+i] && reach[(m*K+k)*I+i] {
					hit += ins.Prob(k, i)
					break
				}
			}
		}
	}
	return hit / ins.TotalMass()
}

// unpack materializes the pre-refactor []bool layouts from the packed ones.
func unpack(e *Evaluator, p *Placement, reach *scenario.Reach) (cached, dense []bool) {
	ins := e.Instance()
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	cached = make([]bool, M*I)
	dense = make([]bool, M*K*I)
	for m := 0; m < M; m++ {
		for i := 0; i < I; i++ {
			cached[m*I+i] = p.Has(m, i)
			for k := 0; k < K; k++ {
				dense[(m*K+k)*I+i] = reach.ServerMask(k, i).Has(m)
			}
		}
	}
	return cached, dense
}

func benchHitRatioWithReach(b *testing.B, e *Evaluator, dense bool) {
	b.Helper()
	reach, p := benchReachAndPlacement(b, e)
	want, err := e.HitRatioWithReach(p, reach)
	if err != nil {
		b.Fatal(err)
	}
	cachedBools, reachBools := unpack(e, p, reach)
	if got := denseHitRatioWithReach(e, cachedBools, reachBools); got != want {
		b.Fatalf("dense reference %v != packed %v", got, want)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if dense {
			_ = denseHitRatioWithReach(e, cachedBools, reachBools)
		} else {
			if _, err := e.HitRatioWithReach(p, reach); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Paper scale: M=10, K=30, I=30.
func BenchmarkHitRatioWithReach(b *testing.B)      { benchHitRatioWithReach(b, benchEval(b), false) }
func BenchmarkHitRatioWithReachDense(b *testing.B) { benchHitRatioWithReach(b, benchEval(b), true) }

// Paper's general-case scale: M=10, K=30, I=90.
func BenchmarkHitRatioWithReach90(b *testing.B) {
	benchHitRatioWithReach(b, buildEval(b, 10, 30, 30, 999), false)
}

func BenchmarkHitRatioWithReach90Dense(b *testing.B) {
	benchHitRatioWithReach(b, buildEval(b, 10, 30, 30, 999), true)
}

// LoRA scale: M=10, K=300, I=1000.
func BenchmarkHitRatioWithReachLoRA(b *testing.B) {
	benchHitRatioWithReach(b, buildLoRAEval(b, 10, 300, 1000, 5), false)
}

func BenchmarkHitRatioWithReachLoRADense(b *testing.B) {
	benchHitRatioWithReach(b, buildLoRAEval(b, 10, 300, 1000, 5), true)
}

func BenchmarkGenLoRA(b *testing.B) {
	e := buildLoRAEval(b, 10, 300, 1000, 5)
	caps := UniformCapacities(10, 8*gb)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := TrimCachingGen(e, caps, GenOptions{Lazy: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenRepairAfterOutage is the write path of cmd/bench's
// fault-churn workload at its shape: M = 36 servers on a grid, K = 500,
// I = 1000 LoRA adapters, 2.06 GB caps that hold the 2 GB foundation and
// six adapters. Each iteration takes the servers of one quadrant (a
// quarter of them) down, or brings them back up, and runs lazy Gen's warm
// Repair, which absorbs the delta and re-solves.
func BenchmarkGenRepairAfterOutage(b *testing.B) {
	e := loraFaultEval(b, 36, 500, 1000, 1)
	ins := e.Instance()
	caps := UniformCapacities(ins.NumServers(), 2_060_000_000)
	alg := GenAlgorithm{Options: GenOptions{Lazy: true}}
	p, err := alg.Place(e, caps)
	if err != nil {
		b.Fatal(err)
	}
	side := ins.Topology().Area().Side
	quarter, err := ins.Topology().ServersIn(geom.RectRegion(0, 0, side/2, side/2))
	if err != nil {
		b.Fatal(err)
	}
	if 4*len(quarter) != ins.NumServers() {
		b.Fatalf("quadrant holds %d of %d servers", len(quarter), ins.NumServers())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d, err := ins.SetServersDown(quarter, n%2 == 0)
		if err != nil {
			b.Fatal(err)
		}
		if p, err = alg.Repair(e, caps, p, d); err != nil {
			b.Fatal(err)
		}
	}
}
