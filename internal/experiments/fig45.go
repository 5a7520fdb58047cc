package experiments

import (
	"fmt"
	"strings"

	"trimcaching/internal/modellib"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/sim"
	"trimcaching/internal/stats"
)

// sweepPoint is one x-axis value of a figure sweep.
type sweepPoint struct {
	x   float64
	cfg sim.TrialConfig
}

// runSweep executes sim.Run per point and assembles one series per
// algorithm. Every point reuses the same algorithm list (order defines
// series order).
func runSweep(title, xLabel string, points []sweepPoint, notes []string) (*stats.Table, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("experiments: empty sweep")
	}
	var series []stats.Series
	for pi, pt := range points {
		results, err := sim.Run(pt.cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s at x=%v: %w", title, pt.x, err)
		}
		if pi == 0 {
			series = make([]stats.Series, len(results))
			for a, r := range results {
				series[a].Label = r.Name
			}
		}
		for a, r := range results {
			series[a].Append(pt.x, r.HitRatio)
		}
	}
	return &stats.Table{
		Title:  title,
		XLabel: xLabel,
		YLabel: "cache hit ratio",
		Series: series,
		Notes:  notes,
	}, nil
}

// trial builds the sim.TrialConfig of one sweep point: algs placed from lib
// with qGB of storage per server on deployments drawn from sc, at opt's
// fidelity, seeded by opt.Seed salted with salt.
func trial(opt Options, lib *modellib.Library, sc scenario.GenConfig, qGB float64, algs []placement.Algorithm, salt string) sim.TrialConfig {
	return sim.TrialConfig{
		Library:       lib,
		Scenario:      sc,
		CapacityBytes: int64(qGB * GB),
		Algorithms:    algs,
		Topologies:    opt.Topologies,
		Realizations:  opt.Realizations,
		Workers:       opt.Workers,
		Seed:          rng.SaltSeed(opt.Seed, salt),
	}
}

// Defaults held fixed on the non-swept axes (captions of Figs. 4–5; K is
// not stated in the paper and documented as 30 in DESIGN.md).
const (
	defaultServers = 10
	defaultUsers   = 30
	defaultQGB     = 1.0
)

// The axes of Figs. 4–5, in panel order: (a) sweeps Q, (b) M and (c) K.
const (
	axisQ = iota
	axisM
	axisK
)

// panelAxes holds each axis of Figs. 4–5: its symbol, its x label, the
// title's phrase for it, its unit in the notes, the paper's sweep, and the
// value it holds while another axis is swept.
var panelAxes = [...]struct {
	symbol, label, phrase, unit string
	sweep                       []float64
	fixed                       float64
}{
	axisQ: {"Q", "Q (GB)", "edge server capacity", " GB", []float64{0.5, 0.75, 1.0, 1.25, 1.5}, defaultQGB},
	axisM: {"M", "M", "number of edge servers", "", []float64{6, 8, 10, 12, 14}, defaultServers},
	axisK: {"K", "K", "number of users", "", []float64{10, 20, 30, 40, 50}, defaultUsers},
}

// figPanel returns the runner of one panel of Figs. 4–5: hit ratio vs the
// axis ax, the other two held at their captions' values. The general case
// (Fig. 5) places a Table I library with Gen and the two baselines; the
// special case (Fig. 4) places a special-case library with Spec as well.
func figPanel(ax int, special bool) func(Options) (*stats.Table, error) {
	return func(opt Options) (*stats.Table, error) {
		fig, kind, eps := 5, "general", ""
		algs := []placement.Algorithm{genAlgorithm(), placement.IndependentAlgorithm{}, placement.PopularityAlgorithm{}}
		var lib *modellib.Library
		var err error
		if special {
			fig, kind, eps = 4, "special", fmt.Sprintf(", eps=%v", opt.Epsilon)
			algs = append([]placement.Algorithm{specAlgorithm(opt)}, algs...)
			lib, err = specialLibrary(opt)
		} else {
			lib, err = generalLibrary(opt, opt.LibraryModels)
		}
		if err != nil {
			return nil, err
		}
		var dims [len(panelAxes)]float64
		var fixed []string
		for a, axis := range panelAxes {
			dims[a] = axis.fixed
			if a != ax {
				fixed = append(fixed, fmt.Sprintf("%s=%v%s", axis.symbol, axis.fixed, axis.unit))
			}
		}
		swept, letter := panelAxes[ax], 'a'+rune(ax)
		var points []sweepPoint
		for _, x := range swept.sweep {
			dims[ax] = x
			salt := fmt.Sprintf("fig%d%c/%s=%v", fig, letter, strings.ToLower(swept.symbol), x)
			points = append(points, sweepPoint{
				x:   x,
				cfg: trial(opt, lib, paperScenario(int(dims[axisM]), int(dims[axisK])), dims[axisQ], algs, salt),
			})
		}
		return runSweep(fmt.Sprintf("Fig. %d(%c) %s case: cache hit ratio vs %s", fig, letter, kind, swept.phrase),
			swept.label, points, []string{
				fmt.Sprintf("%s, I=%d%s", strings.Join(fixed, ", "), lib.NumModels(), eps),
			})
	}
}
