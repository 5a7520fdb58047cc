package experiments

import (
	"fmt"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/stats"
	"trimcaching/internal/topology"
	"trimcaching/internal/trace"
)

// ablationLayout compares the paper's uniform random server deployment
// against a planned grid and an unplanned Poisson point process, holding
// everything else fixed.
func ablationLayout(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	algs := []placement.Algorithm{genAlgorithm(), placement.IndependentAlgorithm{}}
	var points []sweepPoint
	for pi, layout := range []topology.Layout{topology.LayoutUniform, topology.LayoutGrid, topology.LayoutPPP} {
		sc := paperScenario(defaultServers, defaultUsers)
		sc.Topology.ServerLayout = layout
		points = append(points, sweepPoint{x: float64(pi + 1), cfg: trial(opt, lib, sc, 0.75, algs, fmt.Sprintf("ablate-layout/%v", layout))})
	}
	return runSweep("Ablation: cache hit ratio vs server deployment layout", "layout# (1=uniform, 2=grid, 3=ppp)", points, []string{
		fmt.Sprintf("M=%d, K=%d, Q=0.75GB, I=%d", defaultServers, defaultUsers, lib.NumModels()),
	})
}

// serveLoad sweeps the request arrival rate through the event-driven
// serving simulator: under contention every server's spectrum is
// processor-shared by its active downloads, so QoS hit ratios fall as load
// rises — faster for placements that push traffic onto relays and the
// cloud. This is an end-to-end systems view the paper's closed-form
// objective abstracts away.
func serveLoad(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	rates := []float64{15, 30, 60, 120, 240} // requests/user/hour
	algs := []placement.Algorithm{genAlgorithm(), placement.IndependentAlgorithm{}, placement.PopularityAlgorithm{}}
	series := make([]stats.Series, len(algs))
	for a, alg := range algs {
		series[a].Label = alg.Name()
	}

	for _, rate := range rates {
		accs := make([]stats.Accumulator, len(algs))
		for t := 0; t < opt.Topologies; t++ {
			src := rng.New(rng.SaltSeed(opt.Seed, fmt.Sprintf("serve-load/%v", rate))).SplitIndex("trial", t)
			ins, err := scenario.Generate(lib, paperScenario(defaultServers, defaultUsers), src.Split("instance"))
			if err != nil {
				return nil, err
			}
			eval, err := placement.NewEvaluator(ins)
			if err != nil {
				return nil, err
			}
			caps := placement.UniformCapacities(ins.NumServers(), int64(0.75*GB))
			tr, err := trace.Generate(ins.Workload(), rate, 1800, src.Split("trace"))
			if err != nil {
				return nil, err
			}
			for a, alg := range algs {
				p, err := alg.Place(eval, caps)
				if err != nil {
					return nil, fmt.Errorf("experiments: serve-load %s: %w", alg.Name(), err)
				}
				res, err := cachesim.ServeTrace(ins, p, tr, cachesim.DefaultEventConfig(), src.Split("serve/"+alg.Name()))
				if err != nil {
					return nil, err
				}
				accs[a].Add(res.HitRatio)
			}
		}
		for a := range algs {
			series[a].Append(rate, accs[a].Summarize())
		}
	}
	return &stats.Table{
		Title:  "Extension: event-driven QoS hit ratio vs request load",
		XLabel: "requests/user/hour",
		YLabel: "QoS hit ratio (processor-shared spectrum)",
		Series: series,
		Notes: []string{
			fmt.Sprintf("M=%d, K=%d, Q=0.75GB, I=%d; 30 min traces", defaultServers, defaultUsers, lib.NumModels()),
		},
	}, nil
}
