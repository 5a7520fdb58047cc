package experiments

import (
	"fmt"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/modellib"
	"trimcaching/internal/placement"
	"trimcaching/internal/pool"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/stats"
)

// Fig. 7 parameters (§VII-E): M = 10, K = 10, Q = 1 GB, special case,
// 5-second slots over 2 hours with checkpoints every 10 minutes.
const (
	fig7Servers       = 10
	fig7Users         = 10
	fig7SlotS         = 5
	fig7DurationMin   = 120
	fig7CheckpointMin = 10
)

// fig7 reproduces Fig. 7: models are placed once at t = 0 (Spec and Gen),
// users then move per the pedestrian/bike/vehicle model, and the cache hit
// ratio is re-evaluated under fading at each checkpoint without replacing
// models. The paper reports only ~5-6% degradation over 2 h.
func fig7(opt Options) (*stats.Table, error) {
	algs := []placement.Algorithm{specAlgorithm(opt), genAlgorithm()}
	tracks := make([]dynamics.Track, len(algs))
	for a, alg := range algs {
		tracks[a] = dynamics.Track{Algorithm: alg, Trigger: dynamics.NeverTrigger{}}
	}
	series, _, err := runFig7(opt, "fig7", tracks)
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("M=%d, K=%d, Q=1GB, slot=%ds, classes: pedestrian/bike/vehicle", fig7Servers, fig7Users, fig7SlotS),
	}
	for a := range series {
		series[a].Label = algs[a].Name()
		first := series[a].Points[0].Mean
		last := series[a].Points[len(series[a].Points)-1].Mean
		if first > 0 {
			notes = append(notes, fmt.Sprintf("%s degradation over 2h: %.2f%%", series[a].Label, 100*(first-last)/first))
		}
	}
	return &stats.Table{
		Title:  "Fig. 7 cache hit ratio over time under user mobility",
		XLabel: "time (min)",
		YLabel: "cache hit ratio",
		Series: series,
		Notes:  notes,
	}, nil
}

// runFig7 runs the Fig. 7 timeline on opt.Topologies topologies, on a pool
// of opt.Workers goroutines. Each topology is one dynamics.Run of all the
// tracks on its trial stream of the salted seed, so the tracks share its
// topology, walk and fading. It returns one unlabelled series per track,
// the mean hit ratio at each checkpoint time, and each track's
// re-placements summed over the topologies.
func runFig7(opt Options, salt string, tracks []dynamics.Track) ([]stats.Series, []int, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, nil, err
	}
	// Fading realizations per checkpoint: cheaper than the main figures
	// because the trial re-evaluates 13 times.
	realizations := max(opt.Realizations/4, 10)
	root := rng.New(rng.SaltSeed(opt.Seed, salt))
	results := make([]*dynamics.Result, opt.Topologies)
	err = pool.Run(pool.Size(opt.Workers, opt.Topologies), opt.Topologies, pool.Func(func(_, t int) error {
		var err error
		if results[t], err = fig7Trial(lib, tracks, realizations, root.SplitIndex("trial", t)); err != nil {
			return fmt.Errorf("experiments: %s trial %d: %w", salt, t, err)
		}
		return nil
	}))
	if err != nil {
		return nil, nil, err
	}

	replacements := make([]int, len(tracks))
	for _, res := range results {
		for a := range tracks {
			replacements[a] += res.Replacements[a]
		}
	}
	series := make([]stats.Series, len(tracks))
	for a := range series {
		for cp := range results[0].Steps {
			var acc stats.Accumulator
			for _, res := range results {
				acc.Add(res.Steps[cp].HitRatio[a])
			}
			series[a].Append(float64(cp*fig7CheckpointMin), acc.Summarize())
		}
	}
	return series, replacements, nil
}

// fig7Trial runs one topology: place every track at t = 0, then walk the
// users for 2 h, measuring at every checkpoint and re-placing the tracks
// whose trigger fires. The loop is the dynamics engine, whose incremental
// instance updates are pinned bit-identical to its rebuild path.
func fig7Trial(lib *modellib.Library, tracks []dynamics.Track, realizations int, src *rng.Source) (*dynamics.Result, error) {
	ins, err := scenario.Generate(lib, paperScenario(fig7Servers, fig7Users), src.Split("instance"))
	if err != nil {
		return nil, err
	}
	return dynamics.Run(dynamics.Config{
		Instance:      ins,
		Capacities:    placement.UniformCapacities(fig7Servers, int64(defaultQGB*GB)),
		Tracks:        tracks,
		DurationMin:   fig7DurationMin,
		CheckpointMin: fig7CheckpointMin,
		SlotS:         fig7SlotS,
		Realizations:  realizations,
	}, src)
}
