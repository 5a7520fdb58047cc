package scenario_test

import (
	"testing"

	"trimcaching/internal/libgen"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// BenchmarkFadedHitMassBlock scores one placement under fading blocks at
// the operating point of cmd/bench's mobility-fading workload: LoRA
// library (1B-parameter foundation, I = 250), 16 servers on a grid in a
// 1264.9 m square, K = 6000, pA = 0.04, 1 Gb/s backhaul, the lazy Gen
// placement at 3 GiB caps, and blocks of 4 realizations. It reports the
// cost per (user, realization), gain sampling included.
func BenchmarkFadedHitMassBlock(b *testing.B) {
	const (
		servers, users, models, block = 16, 6000, 250, 4
	)
	lcfg := libgen.DefaultLoRAConfig(models)
	lcfg.FoundationParams = 1_000_000_000
	lib, err := libgen.GenerateLoRA(lcfg)
	if err != nil {
		b.Fatal(err)
	}
	w := wireless.DefaultConfig()
	w.BackhaulBps = 1e9
	w.ActiveProb = 0.04
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	ins, err := scenario.Generate(lib, scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1264.9, NumServers: servers, NumUsers: users, CoverageRadiusM: w.CoverageRadiusM, ServerLayout: topology.LayoutGrid},
		Wireless: w,
		Workload: wl,
	}, rng.New(1).Split("instance"))
	if err != nil {
		b.Fatal(err)
	}
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		b.Fatal(err)
	}
	p, err := placement.TrimCachingGen(eval, placement.UniformCapacities(servers, 3<<30), placement.GenOptions{Lazy: true})
	if err != nil {
		b.Fatal(err)
	}
	views := []scenario.ServerColumns{p}
	root := rng.New(1).Split("fading")
	vals := make([]rng.Source, block)
	srcs := make([]*rng.Source, block)
	for j := range srcs {
		srcs[j] = &vals[j]
	}
	dst := make([]float64, block)
	scratch := ins.MakeFadeScratch()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for j := range vals {
			root.SplitIndexInto(&vals[j], "real", it*block+j)
		}
		if err := ins.FadedHitMassBlock(srcs, views, dst, scratch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*users*block), "ns/user-real")
}
