// Package experiments regenerates the rows/series of each table/figure in
// the paper's evaluation (§VII), one registry entry per figure or panel:
//
//	Fig. 1   — accuracy vs frozen bottom layers (motivating figure)
//	Fig. 4   — special case: hit ratio vs Q / M / K (Spec, Gen, Independent)
//	Fig. 5   — general case: hit ratio vs Q / M / K (Gen, Independent)
//	Fig. 6   — hit ratio and running time vs the exhaustive optimum
//	Fig. 7   — hit ratio over 2 h of user mobility
//
// plus ablations that probe the design choices (ε, Zipf skew, shared
// fraction, lazy vs naive greedy). Absolute numbers need not match the
// paper's testbed, but the shape — who wins, by what factor, where the
// crossovers fall — is the reproduction target (see DESIGN.md).
package experiments

import (
	"fmt"
	"sort"

	"trimcaching/internal/libgen"
	"trimcaching/internal/modellib"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/stats"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// GB is the paper's storage unit.
const GB = 1_000_000_000

// Options control experiment fidelity. The paper uses 100 topologies and
// >10^3 fading realizations; defaults are scaled down so the full suite
// runs in minutes, and the CLI exposes flags to match the paper exactly.
type Options struct {
	// Topologies is the number of random deployments per point.
	Topologies int
	// Realizations is the number of Rayleigh fading realizations per
	// topology.
	Realizations int
	// Workers bounds trial parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed makes every experiment reproducible.
	Seed uint64
	// Epsilon is the TrimCaching Spec rounding parameter (paper: 0.1).
	Epsilon float64
	// LibraryModels is I, the number of models placed (paper figures: 30).
	LibraryModels int
	// LibraryPoolPerFamily is the per-family size of the generated pool the
	// experiment library is drawn from (paper: 100 per family, 300 total).
	LibraryPoolPerFamily int
}

// DefaultOptions returns fast-but-faithful settings.
func DefaultOptions() Options {
	return Options{
		Topologies:           20,
		Realizations:         200,
		Seed:                 1,
		Epsilon:              0.1,
		LibraryModels:        30,
		LibraryPoolPerFamily: 100,
	}
}

// Validate reports the first invalid option, if any.
func (o Options) Validate() error {
	if o.Topologies <= 0 || o.Realizations <= 0 {
		return fmt.Errorf("experiments: Topologies and Realizations must be positive")
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: Workers must be >= 0, got %d", o.Workers)
	}
	if !(o.Epsilon >= 0 && o.Epsilon <= 1) {
		return fmt.Errorf("experiments: Epsilon must be in [0,1], got %v", o.Epsilon)
	}
	if o.LibraryModels <= 0 || o.LibraryPoolPerFamily <= 0 {
		return fmt.Errorf("experiments: library sizes must be positive")
	}
	return nil
}

// specialLibrary draws the I-model experiment library from a 3-family
// special-case pool (§VII-A).
func specialLibrary(opt Options) (*modellib.Library, error) {
	pool, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(opt.LibraryPoolPerFamily), rng.New(opt.Seed).Split("special-pool"))
	if err != nil {
		return nil, fmt.Errorf("experiments: special pool: %w", err)
	}
	return libgen.TakeStratified(pool, opt.LibraryModels, rng.New(opt.Seed).Split("special-take"))
}

// generalLibrary draws the I-model experiment library from the two-round
// Table I pool (§VII-A).
func generalLibrary(opt Options, models int) (*modellib.Library, error) {
	pool, err := libgen.GenerateGeneral(libgen.DefaultGeneralConfig(), rng.New(opt.Seed).Split("general-pool"))
	if err != nil {
		return nil, fmt.Errorf("experiments: general pool: %w", err)
	}
	return libgen.TakeStratified(pool, models, rng.New(opt.Seed).Split("general-take"))
}

// effectiveBackhaulBps is the per-transfer edge-to-edge throughput used by
// the experiments. The paper quotes a 10 Gb/s backhaul link (§VII-A), but a
// link is shared by all concurrent model migrations and backhaul traffic;
// with an order of ten concurrent transfers the per-migration share is
// ~1 Gb/s. Without this contention factor the relay path (eq. 5) costs only
// tens of milliseconds over a direct hit, one cached copy anywhere serves
// the whole network, and per-server storage never binds — which contradicts
// every capacity-sensitive curve in Figs. 4–5. See DESIGN.md.
const effectiveBackhaulBps = 1e9

// paperScenario returns the §VII-A deployment distribution.
func paperScenario(numServers, numUsers int) scenario.GenConfig {
	w := wireless.DefaultConfig()
	w.BackhaulBps = effectiveBackhaulBps
	return scenario.GenConfig{
		Topology: topology.Config{
			AreaSideM:       1000,
			NumServers:      numServers,
			NumUsers:        numUsers,
			CoverageRadiusM: w.CoverageRadiusM,
		},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
}

// specAlgorithm builds TrimCaching Spec with the configured ε.
func specAlgorithm(opt Options) placement.Algorithm {
	return placement.SpecAlgorithm{Options: placement.SpecOptions{Epsilon: opt.Epsilon, MaxCombos: 1 << 20}}
}

// genAlgorithm builds TrimCaching Gen (lazy evaluation).
func genAlgorithm() placement.Algorithm {
	return placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}}
}

// Runner is an experiment entry point keyed by its CLI name.
type Runner struct {
	// Name is the CLI verb, e.g. "fig4a".
	Name string
	// Description is a one-line summary shown by `trimcaching list`.
	Description string
	// Run checks its Options and executes the experiment.
	Run func(Options) (*stats.Table, error)
}

// All returns every experiment runner, sorted by name.
func All() []Runner {
	rs := []Runner{
		{Name: "fig1", Description: "accuracy vs frozen bottom layers (substituted fine-tuning model)", Run: fig1},
		{Name: "fig4a", Description: "special case: cache hit ratio vs storage capacity Q", Run: figPanel(axisQ, true)},
		{Name: "fig4b", Description: "special case: cache hit ratio vs number of edge servers M", Run: figPanel(axisM, true)},
		{Name: "fig4c", Description: "special case: cache hit ratio vs number of users K", Run: figPanel(axisK, true)},
		{Name: "fig5a", Description: "general case: cache hit ratio vs storage capacity Q", Run: figPanel(axisQ, false)},
		{Name: "fig5b", Description: "general case: cache hit ratio vs number of edge servers M", Run: figPanel(axisM, false)},
		{Name: "fig5c", Description: "general case: cache hit ratio vs number of users K", Run: figPanel(axisK, false)},
		{Name: "fig6a", Description: "special case: hit ratio and runtime vs exhaustive optimum", Run: fig6a},
		{Name: "fig6b", Description: "general case: Spec vs Gen hit ratio and runtime", Run: fig6b},
		{Name: "fig7", Description: "cache hit ratio over 2 h of user mobility", Run: fig7},
		{Name: "ablate-epsilon", Description: "ablation: Spec quality/runtime vs rounding epsilon", Run: ablationEpsilon},
		{Name: "ablate-zipf", Description: "ablation: TrimCaching gain vs request skew", Run: ablationZipf},
		{Name: "ablate-sharing", Description: "ablation: TrimCaching gain vs shared-parameter fraction", Run: ablationSharing},
		{Name: "ablate-lazy", Description: "ablation: lazy vs naive greedy runtime", Run: ablationLazy},
		{Name: "ablate-ratio", Description: "ablation: greedy variants (gain vs gain/cost vs +refine)", Run: ablationRatio},
		{Name: "fig7-replace", Description: "extension: frozen placement vs threshold replacement under mobility", Run: fig7Replace},
		{Name: "ablate-deadline", Description: "ablation: hit ratio vs QoS deadline scale", Run: ablationDeadline},
		{Name: "ablate-shadowing", Description: "ablation: hit ratio vs log-normal shadowing", Run: ablationShadowing},
		{Name: "ablate-hetero", Description: "ablation: hit ratio vs capacity heterogeneity", Run: ablationHetero},
		{Name: "ablate-layout", Description: "ablation: hit ratio vs server deployment layout", Run: ablationLayout},
		{Name: "serve-load", Description: "extension: event-driven QoS hit ratio vs request load", Run: serveLoad},
	}
	for i := range rs {
		run := rs[i].Run
		rs[i].Run = func(opt Options) (*stats.Table, error) {
			if err := opt.Validate(); err != nil {
				return nil, err
			}
			return run(opt)
		}
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].Name < rs[b].Name })
	return rs
}

// ByName returns the runner with the given name.
func ByName(name string) (Runner, error) {
	for _, r := range All() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
