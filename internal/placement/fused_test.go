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

// denseFadedHitRatio is the scalar reference evaluator under a fading
// realization: scan every server per (user, model) request, count the
// first cached-and-reachable one.
func denseFadedHitRatio(e *Evaluator, p *Placement, reach *scenario.Reach) float64 {
	ins := e.Instance()
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	var hit float64
	for k := 0; k < K; k++ {
		for i := 0; i < I; i++ {
			for m := 0; m < M; m++ {
				if p.Has(m, i) && reach.Has(m, k, i) {
					hit += ins.Prob(k, i)
					break
				}
			}
		}
	}
	return hit / ins.TotalMass()
}

// fusedVsUnfused pins the tentpole equivalence on one instance: for every
// realization, FadedReach + HitRatioWithReach must equal the fused
// FadedHitRatios exactly — same word ops, same float add order — and both
// must equal the dense scalar reference. zeroShare sets about that share of
// each realization's gains to exactly 0, so some covering links of up
// servers have rate 0 and relay instead of serving directly.
func fusedVsUnfused(t *testing.T, e *Evaluator, placements []*Placement, seed uint64, realizations int, zeroShare float64) {
	t.Helper()
	ins := e.Instance()
	src := rng.New(seed)
	buf := ins.MakeReachBuffer()
	scratch := ins.MakeFadeScratch()
	fused := make([]float64, len(placements))
	for r := 0; r < realizations; r++ {
		gains := scenario.SampleGains(ins.NumServers(), ins.NumUsers(), src.SplitIndex("real", r))
		if zeroShare > 0 {
			zero := src.SplitIndex("zero", r)
			for m := range gains {
				for k := range gains[m] {
					if zero.Float64() < zeroShare {
						gains[m][k] = 0
					}
				}
			}
		}
		reach, err := ins.FadedReach(gains, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.FadedHitRatios(gains, placements, scratch, fused); err != nil {
			t.Fatal(err)
		}
		for a, p := range placements {
			unfused, err := e.HitRatioWithReach(p, reach)
			if err != nil {
				t.Fatal(err)
			}
			if fused[a] != unfused {
				t.Fatalf("r=%d placement=%d: fused %.17g != unfused %.17g", r, a, fused[a], unfused)
			}
			if dense := denseFadedHitRatio(e, p, reach); unfused != dense {
				t.Fatalf("r=%d placement=%d: unfused %.17g != dense %.17g", r, a, unfused, dense)
			}
		}
	}
}

// paperPlacements places Gen and Independent at half a gigabyte per server
// and adds the empty placement.
func paperPlacements(t testing.TB, e *Evaluator) []*Placement {
	t.Helper()
	ins := e.Instance()
	caps := UniformCapacities(ins.NumServers(), gb/2)
	gen, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := IndependentCaching(e, caps)
	if err != nil {
		t.Fatal(err)
	}
	return []*Placement{gen, ind, NewPlacement(ins.NumServers(), ins.NumModels())}
}

// TestFusedMatchesUnfusedProperty pins fused == unfused == dense exactly
// over random instances, placements, and fading realizations — first on
// fresh instances (whose rank index is built at construction), then after
// an in-place update has revised thresholds through the update path. The
// fixtures span one and two model words (I = 9 and I = 75), each with the
// drawn gains and with 30% of them zeroed.
func TestFusedMatchesUnfusedProperty(t *testing.T) {
	for _, fx := range []struct {
		perFamily int
		zeroShare float64
	}{{3, 0}, {3, 0.3}, {25, 0}, {25, 0.3}} {
		for seed := uint64(60); seed < 64; seed++ {
			e := buildEval(t, 5, 14, fx.perFamily, seed)
			ins := e.Instance()
			placements := paperPlacements(t, e)
			fusedVsUnfused(t, e, placements, seed+100, 4, fx.zeroShare)

			// A no-op move revises thresholds without changing any verdict;
			// the rank prefixes must survive the update path.
			all := make([]int, ins.NumUsers())
			for k := range all {
				all[k] = k
			}
			delta, err := ins.UpdateUsers(all, ins.Topology().UserPositions())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ApplyDelta(delta); err != nil {
				t.Fatal(err)
			}
			fusedVsUnfused(t, e, placements, seed+100, 4, fx.zeroShare)
		}
	}
}

// FuzzFadedHitRatios draws whole instances — server count, user count,
// models per family, and the share of zeroed gains — and requires the
// fused kernel, the two-pass path, and the dense reference to agree
// exactly on Gen, Independent, and empty placements. The seeds are the
// fixtures of the tests above. Run it with
// go test -run '^$' -fuzz FuzzFadedHitRatios -fuzztime 10s ./internal/placement.
func FuzzFadedHitRatios(f *testing.F) {
	f.Add(uint64(60), uint8(5), uint8(14), uint8(3), uint8(0))
	f.Add(uint64(61), uint8(5), uint8(14), uint8(3), uint8(30))
	f.Add(uint64(62), uint8(5), uint8(14), uint8(25), uint8(0))
	f.Add(uint64(63), uint8(5), uint8(14), uint8(25), uint8(30))
	f.Add(uint64(71), uint8(70), uint8(20), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, m, k, perFamily, zeroPct uint8) {
		M := 1 + int(m)%80
		K := 1 + int(k)%40
		e := buildEval(t, M, K, 1+int(perFamily)%30, seed)
		fusedVsUnfused(t, e, paperPlacements(t, e), seed+100, 3, float64(zeroPct%101)/100)
	})
}

// TestFusedMultiWordServers is the M > 64 fixture: with 70 servers the
// packed masks span two words, exercising the generic HitRatioWithReach
// branch and the fused kernel's transpose of multi-word server columns on a
// fresh instance — whose rank index exists from construction, so the
// rank-prefix masks are what run here, pinned against a full scan. All
// three evaluators — two-pass packed, fused, and the dense scalar
// reference — must agree bit-for-bit.
func TestFusedMultiWordServers(t *testing.T) {
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(3), rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	cfg := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1500, NumServers: 70, NumUsers: 20, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	ins, err := scenario.Generate(lib, cfg, rng.New(72))
	if err != nil {
		t.Fatal(err)
	}
	if ins.ServerMaskWords() < 2 {
		t.Fatalf("M=70 fixture packed into %d words, want >= 2", ins.ServerMaskWords())
	}
	e, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	caps := UniformCapacities(70, gb/2)
	p, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.CountPlacements() == 0 {
		t.Fatal("fixture placed nothing; equivalence would be vacuous")
	}
	fusedVsUnfused(t, e, []*Placement{p}, 73, 5, 0)
}

// TestFadedCandidateRatios pins the candidate-batch certification path:
// scoring the base placement plus N top-of-heap candidates through one
// multi-placement sweep must equal scoring each candidate overlay as its
// own cloned placement through FadedHitRatios — exactly, since both run
// the same kernel over the same columns.
func TestFadedCandidateRatios(t *testing.T) {
	for seed := uint64(110); seed < 113; seed++ {
		e := buildEval(t, 5, 14, 3, seed)
		ins := e.Instance()
		caps := UniformCapacities(ins.NumServers(), gb/2)
		base, err := TrimCachingGen(e, caps, GenOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		cands := e.TopCandidates(6)
		if len(cands) == 0 {
			t.Fatal("no candidates above tolerance; equivalence would be vacuous")
		}
		for j := 1; j < len(cands); j++ {
			if cands[j].Key > cands[j-1].Key {
				t.Fatalf("candidates not in descending key order at %d", j)
			}
		}
		src := rng.New(seed + 200)
		scratch := ins.MakeFadeScratch()
		got := make([]float64, len(cands)+1)
		for r := 0; r < 3; r++ {
			gains := scenario.SampleGains(ins.NumServers(), ins.NumUsers(), src.SplitIndex("real", r))
			if err := e.FadedCandidateRatios(gains, base, cands, scratch, got); err != nil {
				t.Fatal(err)
			}
			placements := []*Placement{base}
			for _, c := range cands {
				p := base.Clone()
				p.Set(c.Server, c.Model)
				placements = append(placements, p)
			}
			want := make([]float64, len(placements))
			if err := e.FadedHitRatios(gains, placements, scratch, want); err != nil {
				t.Fatal(err)
			}
			for a := range want {
				if got[a] != want[a] {
					t.Fatalf("seed=%d r=%d view=%d: batch %.17g != per-clone %.17g", seed, r, a, got[a], want[a])
				}
			}
		}

		// Error paths: wrong output length and out-of-range candidates.
		if err := e.FadedCandidateRatios(nil, base, cands, scratch, make([]float64, len(cands))); err == nil {
			t.Fatal("output length mismatch must error")
		}
		gains := scenario.SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(seed+300))
		bad := []Candidate{{Server: ins.NumServers(), Model: 0}}
		if err := e.FadedCandidateRatios(gains, base, bad, scratch, make([]float64, 2)); err == nil {
			t.Fatal("out-of-range candidate must error")
		}
	}
}

// TestFadedHitRatiosValidation covers the fused wrapper's error paths.
func TestFadedHitRatiosValidation(t *testing.T) {
	e := buildEval(t, 3, 8, 2, 80)
	ins := e.Instance()
	p := NewPlacement(ins.NumServers(), ins.NumModels())
	gains := scenario.SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(81))
	if err := e.FadedHitRatios(gains, []*Placement{p}, nil, make([]float64, 2)); err == nil {
		t.Fatal("output length mismatch must error")
	}
	wrong := NewPlacement(ins.NumServers()+1, ins.NumModels())
	if err := e.FadedHitRatios(gains, []*Placement{wrong}, nil, make([]float64, 1)); err == nil {
		t.Fatal("placement dim mismatch must error")
	}
	if err := e.FadedHitRatios(gains[:1], []*Placement{p}, nil, make([]float64, 1)); err == nil {
		t.Fatal("gain dim mismatch must error")
	}
	if err := e.FadedHitRatios(gains, nil, nil, nil); err != nil {
		t.Fatalf("empty placement list must be a no-op, got %v", err)
	}
}
