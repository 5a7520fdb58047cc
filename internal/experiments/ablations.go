package experiments

import (
	"fmt"

	"trimcaching/internal/libgen"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/sim"
	"trimcaching/internal/stats"
)

// ablationEpsilon sweeps TrimCaching Spec's rounding parameter ε and
// reports both hit ratio and placement runtime: the Prop. 4 trade-off
// between solution quality and DP cost.
func ablationEpsilon(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	epsilons := []float64{0.05, 0.1, 0.2, 0.5, 1.0}
	hit := stats.Series{Label: "Spec hit ratio"}
	secs := stats.Series{Label: "Spec time (s)", Timing: true}
	for _, eps := range epsilons {
		// Q = 0.5 GB is binding, so the DP matters.
		algs := []placement.Algorithm{placement.SpecAlgorithm{Options: placement.SpecOptions{Epsilon: eps, MaxCombos: 1 << 20}}}
		results, err := sim.Run(trial(opt, lib, paperScenario(defaultServers, defaultUsers), 0.5, algs, "ablate-epsilon"))
		if err != nil {
			return nil, fmt.Errorf("experiments: ablate-epsilon eps=%v: %w", eps, err)
		}
		hit.Append(eps, results[0].HitRatio)
		secs.Append(eps, results[0].PlaceSeconds)
	}
	return &stats.Table{
		Title:   "Ablation: TrimCaching Spec vs rounding epsilon",
		XLabel:  "epsilon",
		YLabel:  "hit ratio / time",
		Series:  []stats.Series{hit, secs},
		Notes:   []string{fmt.Sprintf("M=%d, K=%d, Q=0.5GB, I=%d", defaultServers, defaultUsers, lib.NumModels())},
		Decimal: 6,
	}, nil
}

// ablationZipf sweeps the request-popularity skew: flatter popularity makes
// caching harder and parameter sharing more valuable.
func ablationZipf(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	algs := []placement.Algorithm{genAlgorithm(), placement.IndependentAlgorithm{}}
	var points []sweepPoint
	for _, s := range []float64{0.4, 0.6, 0.8, 1.0, 1.2} {
		sc := paperScenario(defaultServers, defaultUsers)
		sc.Workload.ZipfExponent = s
		points = append(points, sweepPoint{x: s, cfg: trial(opt, lib, sc, 0.5, algs, fmt.Sprintf("ablate-zipf/%v", s))})
	}
	return runSweep("Ablation: cache hit ratio vs Zipf exponent", "zipf exponent", points, []string{
		fmt.Sprintf("M=%d, K=%d, Q=0.5GB, I=%d", defaultServers, defaultUsers, lib.NumModels()),
	})
}

// ablationSharing sweeps the frozen (shared) fraction of the downstream
// models: the storage-efficiency lever the paper's Fig. 1 motivates. Freeze
// ranges are scaled from shallow (little sharing) to the paper's ranges.
func ablationSharing(opt Options) (*stats.Table, error) {
	algs := []placement.Algorithm{genAlgorithm(), placement.IndependentAlgorithm{}}
	var points []sweepPoint
	for _, scale := range []float64{0.25, 0.5, 0.75, 1.0} {
		ranges := map[libgen.ResNetVariant]libgen.FreezeRange{}
		for _, fam := range []libgen.ResNetVariant{libgen.ResNet18, libgen.ResNet34, libgen.ResNet50} {
			fr, err := libgen.PaperFreezeRange(fam)
			if err != nil {
				return nil, err
			}
			fr.Min = int(float64(fr.Min) * scale)
			fr.Max = int(float64(fr.Max) * scale)
			if fr.Min < 1 {
				fr.Min = 1
			}
			if fr.Max < fr.Min {
				fr.Max = fr.Min
			}
			ranges[fam] = fr
		}
		cfg := libgen.DefaultSpecialConfig(opt.LibraryPoolPerFamily)
		cfg.FreezeRanges = ranges
		pool, err := libgen.GenerateSpecial(cfg, rng.New(rng.SaltSeed(opt.Seed, fmt.Sprintf("ablate-sharing/pool/%v", scale))))
		if err != nil {
			return nil, err
		}
		lib, err := libgen.TakeStratified(pool, opt.LibraryModels, rng.New(rng.SaltSeed(opt.Seed, "ablate-sharing/take")))
		if err != nil {
			return nil, err
		}
		points = append(points, sweepPoint{
			x:   lib.Stats().MeanSharedFrac,
			cfg: trial(opt, lib, paperScenario(defaultServers, defaultUsers), 0.5, algs, fmt.Sprintf("ablate-sharing/%v", scale)),
		})
	}
	return runSweep("Ablation: cache hit ratio vs mean shared-parameter fraction", "shared fraction", points, []string{
		"freeze depths scaled from 25% to 100% of the paper's ranges",
		fmt.Sprintf("M=%d, K=%d, Q=0.5GB", defaultServers, defaultUsers),
	})
}

// ablationLazy compares the naive Algorithm 3 rescan against the lazy
// (Minoux) variant: identical quality, much lower runtime.
func ablationLazy(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	algs := []placement.Algorithm{
		placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}},
		placement.GenAlgorithm{Options: placement.GenOptions{}},
	}
	results, err := sim.Run(trial(opt, lib, paperScenario(defaultServers, defaultUsers), defaultQGB, algs, "ablate-lazy"))
	if err != nil {
		return nil, fmt.Errorf("experiments: ablate-lazy: %w", err)
	}
	hit := stats.Series{Label: "hit ratio"}
	secs := stats.Series{Label: "time (s)", Timing: true}
	labels := []string{"lazy", "naive"}
	notes := make([]string, 0, 3)
	for a, r := range results {
		hit.Append(float64(a+1), r.HitRatio)
		secs.Append(float64(a+1), r.PlaceSeconds)
		notes = append(notes, fmt.Sprintf("variant %d = %s greedy", a+1, labels[a]))
	}
	if results[0].PlaceSeconds.Mean > 0 {
		notes = append(notes, fmt.Sprintf("lazy speedup: %.1fx",
			results[1].PlaceSeconds.Mean/results[0].PlaceSeconds.Mean))
	}
	return &stats.Table{
		Title:   "Ablation: lazy vs naive greedy (TrimCaching Gen)",
		XLabel:  "variant#",
		YLabel:  "hit ratio / time",
		Series:  []stats.Series{hit, secs},
		Notes:   notes,
		Decimal: 6,
	}, nil
}
