package sim

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

// TestFusedSessionMatchesUnfusedAcrossWorkers pins the session-level half
// of the fused-kernel equivalence: for random instances, both on the
// construction-time rank index and after an in-place update has revised
// thresholds, Evaluate must equal EvaluateUnfused exactly — not within
// epsilon — and both must be bit-identical for every worker count and
// every realization block size (auto, per-realization, sizes that split
// the 17 realizations unevenly, and one covering them all).
func TestFusedSessionMatchesUnfusedAcrossWorkers(t *testing.T) {
	for seed := uint64(90); seed < 93; seed++ {
		lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(3), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		w := wireless.DefaultConfig()
		ins, err := scenario.Generate(lib, scenario.GenConfig{
			Topology: topology.Config{AreaSideM: 1000, NumServers: 5, NumUsers: 12, CoverageRadiusM: w.CoverageRadiusM},
			Wireless: w,
			Workload: workload.DefaultConfig(),
		}, rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		eval, err := placement.NewEvaluator(ins)
		if err != nil {
			t.Fatal(err)
		}
		caps := placement.UniformCapacities(5, 1<<29)
		p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		placements := []*placement.Placement{p}

		check := func(label string) {
			t.Helper()
			var want []float64
			for workers := 1; workers <= 4; workers++ {
				for _, bs := range []int{0, 1, 2, 3, 5, 17} {
					s := NewFadingSession(ins, workers)
					s.SetBlockSize(bs)
					fused, err := s.Evaluate(eval, placements, 17, rng.New(seed+2))
					if err != nil {
						t.Fatal(err)
					}
					unfused, err := s.EvaluateUnfused(eval, placements, 17, rng.New(seed+2))
					if err != nil {
						t.Fatal(err)
					}
					if fused[0] != unfused[0] {
						t.Fatalf("%s workers=%d block=%d: fused %.17g != unfused %.17g", label, workers, bs, fused[0], unfused[0])
					}
					if want == nil {
						want = fused
					} else if fused[0] != want[0] {
						t.Fatalf("%s workers=%d block=%d: %.17g differs from first %.17g", label, workers, bs, fused[0], want[0])
					}
				}
			}
		}
		check("fresh")

		// A no-op move revises thresholds through the update path; the
		// rank prefixes must still agree exactly afterwards.
		all := make([]int, ins.NumUsers())
		for k := range all {
			all[k] = k
		}
		if _, err := ins.ReviseUsers(nil, nil, all, ins.Topology().UserPositions()); err != nil {
			t.Fatal(err)
		}
		check("ranked")
	}
}
