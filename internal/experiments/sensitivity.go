package experiments

import (
	"fmt"

	"trimcaching/internal/placement"
	"trimcaching/internal/stats"
)

// ablationDeadline sweeps the QoS latency budget: the fundamental trade-off
// between storage efficiency and service latency that TrimCaching balances
// (§I). Tight deadlines kill relayed downloads first, so local caching —
// and therefore parameter sharing — matters most.
func ablationDeadline(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	algs := []placement.Algorithm{genAlgorithm(), placement.IndependentAlgorithm{}}
	var points []sweepPoint
	// Deadline windows scaled around the paper's [0.5, 1] s.
	for _, scale := range []float64{0.6, 0.8, 1.0, 1.4, 2.0} {
		sc := paperScenario(defaultServers, defaultUsers)
		sc.Workload.DeadlineMinS = 0.5 * scale
		sc.Workload.DeadlineMaxS = 1.0 * scale
		points = append(points, sweepPoint{x: scale, cfg: trial(opt, lib, sc, 0.75, algs, fmt.Sprintf("ablate-deadline/%v", scale))})
	}
	return runSweep("Ablation: cache hit ratio vs QoS deadline scale", "deadline scale (x of [0.5,1]s)", points, []string{
		fmt.Sprintf("M=%d, K=%d, Q=0.75GB, I=%d", defaultServers, defaultUsers, lib.NumModels()),
	})
}

// ablationShadowing adds log-normal shadowing on top of the paper's channel
// model and measures how robust the TrimCaching advantage is to slow-fading
// uncertainty the placement cannot see coming.
func ablationShadowing(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	algs := []placement.Algorithm{genAlgorithm(), placement.IndependentAlgorithm{}}
	var points []sweepPoint
	for _, sigma := range []float64{0, 4, 8} {
		sc := paperScenario(defaultServers, defaultUsers)
		sc.Wireless = sc.Wireless.WithShadowing(sigma)
		points = append(points, sweepPoint{x: sigma, cfg: trial(opt, lib, sc, 0.75, algs, fmt.Sprintf("ablate-shadowing/%v", sigma))})
	}
	return runSweep("Ablation: cache hit ratio vs log-normal shadowing", "shadowing std (dB)", points, []string{
		fmt.Sprintf("M=%d, K=%d, Q=0.75GB, I=%d", defaultServers, defaultUsers, lib.NumModels()),
	})
}

// ablationHetero compares uniform capacities against heterogeneous ones
// with the same total storage: skewed capacity makes coordination — and the
// Spec algorithm's per-server sub-problems — work harder.
func ablationHetero(opt Options) (*stats.Table, error) {
	lib, err := specialLibrary(opt)
	if err != nil {
		return nil, err
	}
	algs := []placement.Algorithm{specAlgorithm(opt), genAlgorithm(), placement.IndependentAlgorithm{}}
	// Each factor set has mean 1 so total network storage is constant.
	profiles := []struct {
		skew    float64
		factors []float64
	}{
		{0, nil},
		{0.5, []float64{0.5, 1.5}},
		{0.9, []float64{0.1, 1.9}},
	}
	var points []sweepPoint
	for _, prof := range profiles {
		cfg := trial(opt, lib, paperScenario(defaultServers, defaultUsers), 0.75, algs, fmt.Sprintf("ablate-hetero/%v", prof.skew))
		cfg.CapacityFactors = prof.factors
		points = append(points, sweepPoint{x: prof.skew, cfg: cfg})
	}
	return runSweep("Ablation: cache hit ratio vs capacity heterogeneity", "capacity skew (0 = uniform; total storage constant)", points, []string{
		fmt.Sprintf("M=%d, K=%d, mean Q=0.75GB, I=%d", defaultServers, defaultUsers, lib.NumModels()),
	})
}
