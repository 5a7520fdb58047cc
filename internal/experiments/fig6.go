package experiments

import (
	"fmt"

	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/sim"
	"trimcaching/internal/stats"
)

// fig6Scenario is the paper's shrunk comparison setting (§VII-D): 400 m
// area, M = 2 servers, K = 6 users, so the exhaustive search stays
// tractable. ε is set to 0 in this subsection.
func fig6Scenario() (numServers, numUsers int, areaSideM float64) {
	return 2, 6, 400
}

// runAlgoComparison runs the algorithms on a single experiment point and
// renders hit ratio plus average running time per algorithm — the two bar
// groups of Fig. 6.
func runAlgoComparison(title string, trial sim.TrialConfig) (*stats.Table, error) {
	results, err := sim.Run(trial)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", title, err)
	}
	hit := stats.Series{Label: "cache hit ratio"}
	secs := stats.Series{Label: "avg running time (s)", Timing: true}
	notes := make([]string, 0, len(results)+1)
	for a, r := range results {
		x := float64(a + 1)
		hit.Append(x, r.HitRatio)
		secs.Append(x, r.PlaceSeconds)
		notes = append(notes, fmt.Sprintf("algorithm %d = %s (avg time %.6fs)", a+1, r.Name, r.PlaceSeconds.Mean))
	}
	// Relative speed factors, the paper's headline for this figure.
	base := results[len(results)-1].PlaceSeconds.Mean
	for a := 0; a < len(results)-1; a++ {
		if results[a].PlaceSeconds.Mean > 0 {
			notes = append(notes, fmt.Sprintf("%s is %.0fx faster than %s",
				results[a].Name, base/results[a].PlaceSeconds.Mean, results[len(results)-1].Name))
		}
	}
	return &stats.Table{
		Title:   title,
		XLabel:  "algorithm#",
		YLabel:  "cache hit ratio / running time",
		Series:  []stats.Series{hit, secs},
		Notes:   notes,
		Decimal: 6,
	}, nil
}

// Fig6a reproduces Fig. 6(a): special case, Gen vs Spec vs exhaustive
// optimum on the shrunk instance (Q = 0.1 GB, 9 models, ε = 0).
func Fig6a(opt Options) (*stats.Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	m, k, side := fig6Scenario()
	poolOpt := opt
	poolOpt.LibraryModels = 9
	lib, err := specialLibrary(poolOpt)
	if err != nil {
		return nil, err
	}
	sc := paperScenario(m, k)
	sc.Topology.AreaSideM = side
	trial := sim.TrialConfig{
		Library:       lib,
		Scenario:      sc,
		CapacityBytes: int64(0.1 * GB),
		Algorithms: []placement.Algorithm{
			placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}},
			placement.SpecAlgorithm{Options: placement.SpecOptions{Epsilon: 0, MaxCombos: 1 << 20}},
			placement.OptimalAlgorithm{},
		},
		Topologies:   opt.Topologies,
		Realizations: opt.Realizations,
		Workers:      opt.Workers,
		Seed:         rng.SaltSeed(opt.Seed, "fig6a"),
	}
	return runAlgoComparison("Fig. 6(a) special case: algorithms vs exhaustive optimum (M=2, K=6, Q=0.1GB, I=9, eps=0)", trial)
}

// Fig6b reproduces Fig. 6(b): general case, Gen vs Spec running time
// (Q = 0.2 GB, 27 models, ε = 0). In the general case Spec's shared-block
// enumeration blows up, which is exactly the phenomenon this figure shows.
func Fig6b(opt Options) (*stats.Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	m, k, side := fig6Scenario()
	lib, err := generalLibrary(opt, 27)
	if err != nil {
		return nil, err
	}
	sc := paperScenario(m, k)
	sc.Topology.AreaSideM = side
	trial := sim.TrialConfig{
		Library:       lib,
		Scenario:      sc,
		CapacityBytes: int64(0.2 * GB),
		Algorithms: []placement.Algorithm{
			placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}},
			placement.SpecAlgorithm{Options: placement.SpecOptions{Epsilon: 0, MaxCombos: 1 << 22}},
		},
		Topologies:   opt.Topologies,
		Realizations: opt.Realizations,
		Workers:      opt.Workers,
		Seed:         rng.SaltSeed(opt.Seed, "fig6b"),
	}
	return runAlgoComparison("Fig. 6(b) general case: TrimCaching Gen vs Spec (M=2, K=6, Q=0.2GB, I=27, eps=0)", trial)
}
