package scenario

import (
	"math"
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/rng"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

func paperGenConfig(m, k int) GenConfig {
	w := wireless.DefaultConfig()
	return GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: m, NumUsers: k, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
}

func buildInstance(t *testing.T, m, k, modelsPerFamily int, seed uint64) *Instance {
	t.Helper()
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(modelsPerFamily), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	ins, err := Generate(lib, paperGenConfig(m, k), rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestGenerateDims(t *testing.T) {
	ins := buildInstance(t, 10, 30, 4, 1)
	if ins.NumServers() != 10 || ins.NumUsers() != 30 || ins.NumModels() != 12 {
		t.Fatalf("dims: M=%d K=%d I=%d", ins.NumServers(), ins.NumUsers(), ins.NumModels())
	}
	if math.Abs(ins.TotalMass()-30) > 1e-6 {
		t.Fatalf("total mass %v", ins.TotalMass())
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(nil, paperGenConfig(2, 2), rng.New(1)); err == nil {
		t.Fatal("nil library must error")
	}
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(2), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	bad := paperGenConfig(2, 2)
	bad.Topology.NumServers = 0
	if _, err := Generate(lib, bad, rng.New(3)); err == nil {
		t.Fatal("bad topology config must error")
	}
	// Mismatched coverage radius between topology and wireless config.
	bad2 := paperGenConfig(2, 2)
	bad2.Topology.CoverageRadiusM = 100
	if _, err := Generate(lib, bad2, rng.New(4)); err == nil {
		t.Fatal("radius mismatch must error")
	}
}

func TestAvgRateOnlyForCoveringServers(t *testing.T) {
	ins := buildInstance(t, 8, 20, 3, 5)
	topo := ins.Topology()
	for m := 0; m < ins.NumServers(); m++ {
		covered := map[int]bool{}
		for _, k := range topo.UsersOf(m) {
			covered[k] = true
		}
		for k := 0; k < ins.NumUsers(); k++ {
			rate := ins.AvgRateBps(m, k)
			if covered[k] && rate <= 0 {
				t.Fatalf("covering link (%d,%d) has rate %v", m, k, rate)
			}
			if !covered[k] && rate != 0 {
				t.Fatalf("non-covering link (%d,%d) has rate %v", m, k, rate)
			}
		}
	}
}

func TestLatencyStructure(t *testing.T) {
	ins := buildInstance(t, 8, 20, 3, 6)
	topo := ins.Topology()
	for k := 0; k < ins.NumUsers(); k++ {
		covering := topo.ServersCovering(k)
		coveringSet := map[int]bool{}
		for _, m := range covering {
			coveringSet[m] = true
		}
		for i := 0; i < ins.NumModels(); i++ {
			// Relay latency must not depend on which non-covering server
			// serves (constant backhaul), and must exceed the best direct
			// latency.
			var relayLat []float64
			var bestDirect = math.Inf(1)
			for m := 0; m < ins.NumServers(); m++ {
				lat := ins.latencyS(m, k, i)
				if !coveringSet[m] {
					relayLat = append(relayLat, lat)
				} else if lat < bestDirect {
					bestDirect = lat
				}
				if lat <= ins.Workload().InferS(k, i) {
					t.Fatalf("latency (%d,%d,%d)=%v below inference time", m, k, i, lat)
				}
			}
			for _, rl := range relayLat[1:] {
				if rl != relayLat[0] && !(math.IsInf(rl, 1) && math.IsInf(relayLat[0], 1)) {
					t.Fatalf("relay latency differs across servers: %v vs %v", rl, relayLat[0])
				}
			}
			if len(covering) == 0 {
				for _, rl := range relayLat {
					if !math.IsInf(rl, 1) {
						t.Fatalf("uncovered user %d has finite latency %v", k, rl)
					}
				}
			} else if len(relayLat) > 0 && !math.IsInf(relayLat[0], 1) && relayLat[0] < bestDirect {
				// Relay adds a backhaul hop on top of the best direct rate,
				// so it can never beat the best covering server.
				t.Fatalf("relay latency %v beats best direct %v", relayLat[0], bestDirect)
			}
		}
	}
}

func TestReachableMatchesLatency(t *testing.T) {
	ins := buildInstance(t, 6, 15, 3, 7)
	for m := 0; m < ins.NumServers(); m++ {
		for k := 0; k < ins.NumUsers(); k++ {
			for i := 0; i < ins.NumModels(); i++ {
				want := ins.latencyS(m, k, i) <= ins.Workload().DeadlineS(k, i)
				if got := ins.Reachable(m, k, i); got != want {
					t.Fatalf("Reachable(%d,%d,%d) = %v, latency %v deadline %v",
						m, k, i, got, ins.latencyS(m, k, i), ins.Workload().DeadlineS(k, i))
				}
			}
		}
	}
}

func TestSomeReachabilityExists(t *testing.T) {
	// With the paper's parameters a 10-server, 30-user deployment must have
	// plenty of servable (m,k,i) triples — otherwise the whole experiment
	// is vacuous.
	ins := buildInstance(t, 10, 30, 4, 8)
	var reach, total int
	for m := 0; m < ins.NumServers(); m++ {
		for k := 0; k < ins.NumUsers(); k++ {
			for i := 0; i < ins.NumModels(); i++ {
				total++
				if ins.Reachable(m, k, i) {
					reach++
				}
			}
		}
	}
	frac := float64(reach) / float64(total)
	if frac < 0.05 {
		t.Fatalf("only %.1f%% of triples reachable; latency model implausible", 100*frac)
	}
}

func TestHitMass(t *testing.T) {
	ins := buildInstance(t, 6, 15, 3, 9)
	for m := 0; m < ins.NumServers(); m++ {
		for i := 0; i < ins.NumModels(); i++ {
			var want float64
			for k := 0; k < ins.NumUsers(); k++ {
				if ins.Reachable(m, k, i) {
					want += ins.Prob(k, i)
				}
			}
			if got := ins.hitMass(m, i); math.Abs(got-want) > 1e-12 {
				t.Fatalf("hitMass(%d,%d) = %v, want %v", m, i, got, want)
			}
		}
	}
}

func TestFadedReachUnitGainsMatchAverage(t *testing.T) {
	ins := buildInstance(t, 6, 15, 3, 10)
	gains := make([][]float64, ins.NumServers())
	for m := range gains {
		gains[m] = make([]float64, ins.NumUsers())
		for k := range gains[m] {
			gains[m][k] = 1
		}
	}
	buf := ins.MakeReachBuffer()
	got, err := ins.FadedReach(gains, buf)
	if err != nil {
		t.Fatal(err)
	}
	K, I := ins.NumUsers(), ins.NumModels()
	for m := 0; m < ins.NumServers(); m++ {
		for k := 0; k < K; k++ {
			for i := 0; i < I; i++ {
				if got.ServerMask(k, i).Has(m) != ins.Reachable(m, k, i) {
					t.Fatalf("unit-gain faded reach differs at (%d,%d,%d)", m, k, i)
				}
			}
		}
	}
}

func TestFadedReachDeepFadeKillsDirect(t *testing.T) {
	ins := buildInstance(t, 6, 15, 3, 11)
	gains := make([][]float64, ins.NumServers())
	for m := range gains {
		gains[m] = make([]float64, ins.NumUsers())
		// ~zero gain: every link is in deep fade.
		for k := range gains[m] {
			gains[m][k] = 1e-12
		}
	}
	got, err := ins.FadedReach(gains, ins.MakeReachBuffer())
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < ins.NumServers(); m++ {
		for k := 0; k < ins.NumUsers(); k++ {
			for i := 0; i < ins.NumModels(); i++ {
				if got.ServerMask(k, i).Has(m) {
					t.Fatal("deep fade should make everything unreachable")
				}
			}
		}
	}
}

func TestFadedReachValidation(t *testing.T) {
	ins := buildInstance(t, 4, 6, 2, 12)
	if _, err := ins.FadedReach(nil, ins.MakeReachBuffer()); err == nil {
		t.Fatal("nil gains must error")
	}
	gains := SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(13))
	other := buildInstance(t, 4, 7, 2, 99)
	if _, err := ins.FadedReach(gains, other.MakeReachBuffer()); err == nil {
		t.Fatal("wrong-dimension buffer must error")
	}
	if got, err := ins.FadedReach(gains, nil); err != nil || got == nil {
		t.Fatalf("nil buffer must allocate: %v", err)
	}
	bad := SampleGains(ins.NumServers(), ins.NumUsers()-1, rng.New(14))
	if _, err := ins.FadedReach(bad, ins.MakeReachBuffer()); err == nil {
		t.Fatal("wrong gain column count must error")
	}
}

func TestSampleGains(t *testing.T) {
	g := SampleGains(4, 9, rng.New(15))
	if len(g) != 4 || len(g[0]) != 9 {
		t.Fatalf("gains dims %dx%d", len(g), len(g[0]))
	}
	var sum float64
	var n int
	for _, row := range g {
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative gain %v", v)
			}
			sum += v
			n++
		}
	}
	if mean := sum / float64(n); mean < 0.4 || mean > 2.0 {
		t.Fatalf("gain mean %v far from 1", mean)
	}
}

func TestCloserServerHasLowerLatency(t *testing.T) {
	// Construct a deterministic topology: two servers, one user near
	// server 0 — direct from server 0 must beat relay from server 1.
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(2), rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	area, err := geom.NewArea(1000)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.New(area,
		[]geom.Point{{X: 100, Y: 100}, {X: 900, Y: 900}},
		[]geom.Point{{X: 120, Y: 100}}, w.CoverageRadiusM)
	if err != nil {
		t.Fatal(err)
	}
	work, err := workload.Generate(1, lib.NumModels(), workload.DefaultConfig(), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	ins, err := New(topo, lib, work, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ins.NumModels(); i++ {
		direct := ins.latencyS(0, 0, i)
		relay := ins.latencyS(1, 0, i)
		if !(direct < relay) {
			t.Fatalf("model %d: direct %v !< relay %v", i, direct, relay)
		}
	}
}

func TestNewValidation(t *testing.T) {
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(2), rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	topo, err := topology.Generate(topology.Config{
		AreaSideM: 1000, NumServers: 3, NumUsers: 5, CoverageRadiusM: w.CoverageRadiusM,
	}, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	work, err := workload.Generate(4, lib.NumModels(), workload.DefaultConfig(), rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(topo, lib, work, w); err == nil {
		t.Fatal("user count mismatch must error")
	}
	work2, err := workload.Generate(5, lib.NumModels()+1, workload.DefaultConfig(), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(topo, lib, work2, w); err == nil {
		t.Fatal("model count mismatch must error")
	}
	if _, err := New(nil, lib, work, w); err == nil {
		t.Fatal("nil topology must error")
	}
	badW := w
	badW.BandwidthHz = -1
	work3, err := workload.Generate(5, lib.NumModels(), workload.DefaultConfig(), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(topo, lib, work3, badW); err == nil {
		t.Fatal("invalid wireless config must error")
	}
}
