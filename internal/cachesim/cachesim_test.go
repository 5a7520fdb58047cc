package cachesim

import (
	"math"
	"testing"

	"trimcaching/internal/libgen"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

func buildServing(t *testing.T, seed uint64) (*scenario.Instance, *placement.Evaluator) {
	t.Helper()
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(4), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	cfg := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: 5, NumUsers: 12, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	ins, err := scenario.Generate(lib, cfg, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	return ins, eval
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.RequestsPerUserPerHour = 0 },
		func(c *Config) { c.DurationS = 0 },
		func(c *Config) { c.CloudRateBps = 0 },
		func(c *Config) { c.RequestsPerUserPerHour = math.NaN() },
		func(c *Config) { c.RequestsPerUserPerHour = math.Inf(1) },
		func(c *Config) { c.DurationS = math.NaN() },
		func(c *Config) { c.DurationS = math.Inf(1) },
		func(c *Config) { c.CloudRateBps = math.NaN() },
		func(c *Config) { c.CloudRateBps = math.Inf(1) },
	}
	for i, mut := range muts {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("mutation %d: expected error", i)
		}
	}
}

func TestServeValidation(t *testing.T) {
	ins, _ := buildServing(t, 1)
	p := placement.NewPlacement(ins.NumServers(), ins.NumModels())
	if _, err := Serve(nil, p, DefaultConfig(), rng.New(2)); err == nil {
		t.Fatal("nil instance must error")
	}
	if _, err := Serve(ins, nil, DefaultConfig(), rng.New(2)); err == nil {
		t.Fatal("nil placement must error")
	}
	wrong := placement.NewPlacement(1, 1)
	if _, err := Serve(ins, wrong, DefaultConfig(), rng.New(2)); err == nil {
		t.Fatal("dim mismatch must error")
	}
	bad := DefaultConfig()
	bad.DurationS = -1
	if _, err := Serve(ins, p, bad, rng.New(2)); err == nil {
		t.Fatal("bad config must error")
	}
}

func TestServeEmptyPlacementAllCloud(t *testing.T) {
	ins, _ := buildServing(t, 3)
	p := placement.NewPlacement(ins.NumServers(), ins.NumModels())
	res, err := Serve(ins, p, DefaultConfig(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests generated")
	}
	if res.Direct != 0 || res.Relay != 0 {
		t.Fatalf("empty placement served from edge: %+v", res)
	}
	if res.QoSHits != 0 || res.HitRatio != 0 {
		t.Fatalf("empty placement has hits: %+v", res)
	}
	if res.Cloud+res.Failed != res.Requests {
		t.Fatalf("accounting broken: %+v", res)
	}
}

func TestServeGoodPlacementHits(t *testing.T) {
	ins, eval := buildServing(t, 5)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<30)
	p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(ins, p, DefaultConfig(), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests generated")
	}
	if res.Direct == 0 {
		t.Fatalf("optimized placement served nothing directly: %+v", res)
	}
	if res.HitRatio <= 0 || res.HitRatio > 1 {
		t.Fatalf("hit ratio %v", res.HitRatio)
	}
	if res.Direct+res.Relay+res.Cloud+res.Failed != res.Requests {
		t.Fatalf("accounting broken: %+v", res)
	}
	if res.MeanLatency <= 0 || res.P50Latency <= 0 {
		t.Fatalf("latency stats missing: %+v", res)
	}
	if res.P50Latency > res.P95Latency || res.P95Latency > res.P99Latency {
		t.Fatalf("latency quantiles out of order: %+v", res)
	}
}

func TestServeHitRatioTracksPlacementQuality(t *testing.T) {
	ins, eval := buildServing(t, 7)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<30)
	good, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	empty := placement.NewPlacement(ins.NumServers(), ins.NumModels())
	cfg := DefaultConfig()
	resGood, err := Serve(ins, good, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	resEmpty, err := Serve(ins, empty, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if resGood.HitRatio <= resEmpty.HitRatio {
		t.Fatalf("good placement %v not above empty %v", resGood.HitRatio, resEmpty.HitRatio)
	}
}

func TestServeNoFadingDeterministicRates(t *testing.T) {
	ins, eval := buildServing(t, 9)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<30)
	p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Fading = false
	res, err := Serve(ins, p, cfg, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Direct == 0 {
		t.Fatalf("no traffic served: %+v", res)
	}
}

func TestRouteString(t *testing.T) {
	for r, want := range map[Route]string{
		RouteDirect: "direct", RouteRelay: "relay", RouteCloud: "cloud", RouteFailed: "failed",
	} {
		if r.String() != want {
			t.Fatalf("Route(%d).String() = %q", r, r.String())
		}
	}
	if Route(42).String() == "" {
		t.Fatal("unknown route string empty")
	}
}
