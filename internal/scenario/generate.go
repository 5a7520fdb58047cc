package scenario

import (
	"fmt"

	"trimcaching/internal/modellib"
	"trimcaching/internal/rng"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// GenConfig bundles everything needed to sample a random problem instance.
// The model library is built once per experiment and shared across the
// randomly drawn topologies and workloads (§VII-A averages over 100 network
// topologies with a fixed library).
type GenConfig struct {
	Topology topology.Config
	Wireless wireless.Config
	Workload workload.Config
}

// Generate samples a topology and workload from cfg and assembles the
// instance. Deterministic in src: the topology and workload use independent
// sub-streams, so the draw is stable under config reordering.
func Generate(lib *modellib.Library, cfg GenConfig, src *rng.Source) (*Instance, error) {
	if lib == nil {
		return nil, fmt.Errorf("scenario: library is required")
	}
	topo, err := topology.Generate(cfg.Topology, src.Split("topology"))
	if err != nil {
		return nil, fmt.Errorf("scenario: generate topology: %w", err)
	}
	work, err := workload.Generate(cfg.Topology.NumUsers, lib.NumModels(), cfg.Workload, src.Split("workload"))
	if err != nil {
		return nil, fmt.Errorf("scenario: generate workload: %w", err)
	}
	var shadow [][]float64
	if cfg.Wireless.ShadowingStdDB > 0 {
		shadow, err = cfg.Wireless.SampleShadowGains(topo.NumServers(), topo.NumUsers(), src.Split("shadowing"))
		if err != nil {
			return nil, fmt.Errorf("scenario: sample shadowing: %w", err)
		}
	}
	return NewShadowed(topo, lib, work, cfg.Wireless, shadow)
}

// GenerateCoordinator samples the identical topology and workload draw as
// Generate (same sub-streams, bit for bit) but assembles a coordinator
// instance (NewCoordinator): thresholds, rank index, topology, and workload
// only — no per-link rates and no reachability tables. This is the global
// instance a sharded engine should be handed at scale, where the full
// O(M·K + K·I·words) state would cost gigabytes nobody reads. Shadowed
// configurations are rejected (coordinators carry no per-link state).
func GenerateCoordinator(lib *modellib.Library, cfg GenConfig, src *rng.Source) (*Instance, error) {
	if lib == nil {
		return nil, fmt.Errorf("scenario: library is required")
	}
	if cfg.Wireless.ShadowingStdDB > 0 {
		return nil, fmt.Errorf("scenario: coordinator instances carry no per-link shadowing state")
	}
	topo, err := topology.Generate(cfg.Topology, src.Split("topology"))
	if err != nil {
		return nil, fmt.Errorf("scenario: generate topology: %w", err)
	}
	work, err := workload.Generate(cfg.Topology.NumUsers, lib.NumModels(), cfg.Workload, src.Split("workload"))
	if err != nil {
		return nil, fmt.Errorf("scenario: generate workload: %w", err)
	}
	return NewCoordinator(topo, lib, work, cfg.Wireless)
}

// SampleGains draws one Rayleigh block-fading realization: unit-mean
// exponential power gains for every (server, user) link. Only tests call
// it, for the dense references that pin the packed paths: the root
// TestBitsetMatchesDenseReference, sim's TestEvaluateUnderFadingDeterministic
// and placement's fusedVsUnfused.
func SampleGains(numServers, numUsers int, src *rng.Source) [][]float64 {
	gains := make([][]float64, numServers)
	for m := range gains {
		gains[m] = make([]float64, numUsers)
	}
	SampleGainsInto(gains, src)
	return gains
}

// SampleGainsInto fills a preallocated gain matrix with one realization,
// drawing in the same order as SampleGains. Reusing the matrix across
// realizations keeps the Monte-Carlo inner loop allocation-free.
func SampleGainsInto(gains [][]float64, src *rng.Source) {
	for m := range gains {
		row := gains[m]
		for k := range row {
			row[k] = src.Exp()
		}
	}
}
