package experiments

import (
	"fmt"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/placement"
	"trimcaching/internal/stats"
)

// ablationRatio compares Algorithm 3 (absolute marginal gain) with the
// cost-benefit greedy (gain per incremental byte) and the refine post-pass
// across the capacity sweep — probing whether the paper's plain greedy
// leaves quality on the table.
func ablationRatio(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	algs := []placement.Algorithm{
		genAlgorithm(),
		placement.RatioAlgorithm{},
		placement.RefinedAlgorithm{Base: placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}}},
	}
	var points []sweepPoint
	for _, q := range panelAxes[axisQ].sweep {
		points = append(points, sweepPoint{
			x:   q,
			cfg: trial(opt, lib, paperScenario(defaultServers, defaultUsers), q, algs, fmt.Sprintf("ablate-ratio/q=%v", q)),
		})
	}
	return runSweep("Ablation: greedy variants (gain vs gain/cost vs +refine)",
		"Q (GB)", points, []string{
			fmt.Sprintf("M=%d, K=%d, I=%d", defaultServers, defaultUsers, lib.NumModels()),
		})
}

// fig7Replace extends Fig. 7 with the §IV replacement remark: comparing a
// frozen placement against a policy that re-places when the measured hit
// ratio degrades 5% below its post-placement baseline. The two policies are
// two tracks of one timeline per topology, so they see the same topology,
// walk and fading. Reports both timelines and the replacement count.
func fig7Replace(opt Options) (*stats.Table, error) {
	labels := []string{"frozen placement", "replace on 5% degradation"}
	series, replacements, err := runFig7(opt, "fig7-replace", []dynamics.Track{
		{Algorithm: genAlgorithm(), Trigger: dynamics.NeverTrigger{}},
		{Algorithm: genAlgorithm(), Trigger: dynamics.ThresholdTrigger{Degradation: 0.05}},
	})
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("M=%d, K=%d, Q=1GB; replacement threshold 5%%", fig7Servers, fig7Users),
	}
	for a := range series {
		series[a].Label = labels[a]
		notes = append(notes, fmt.Sprintf("%s: %.2f replacements per 2h run",
			labels[a], float64(replacements[a])/float64(opt.Topologies)))
	}
	return &stats.Table{
		Title:  "Fig. 7 extension: frozen placement vs threshold replacement",
		XLabel: "time (min)",
		YLabel: "cache hit ratio",
		Series: series,
		Notes:  notes,
	}, nil
}
