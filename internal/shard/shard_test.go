package shard

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
)

// smokeShardConfig lifts dynamics.NewSmokeScaleConfig into a sharded
// config — the CI shard smoke's scenario.
func smokeShardConfig(t *testing.T, shards, workers int, mode dynamics.Mode) Config {
	t.Helper()
	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := FromDynamics(dc, shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	cfg.Mode = mode
	return cfg
}

func sameSteps(t *testing.T, label string, got, want []Step) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for i := range want {
		for a := range want[i].HitRatio {
			if got[i].HitRatio[a] != want[i].HitRatio[a] {
				t.Errorf("%s: step %d track %d hit ratio %v, want %v",
					label, i, a, got[i].HitRatio[a], want[i].HitRatio[a])
			}
			if got[i].Replaced[a] != want[i].Replaced[a] {
				t.Errorf("%s: step %d track %d replaced %v, want %v",
					label, i, a, got[i].Replaced[a], want[i].Replaced[a])
			}
		}
	}
}

// TestSingleShardBitIdentical pins the Shards = 1 contract: the sharded
// engine's timeline — hit ratios, replacement flags, replacement counts —
// is bit-identical to dynamics.Run on the same configuration and seed, in
// both cell refresh modes.
func TestSingleShardBitIdentical(t *testing.T) {
	for _, mode := range []dynamics.Mode{dynamics.Incremental, dynamics.Rebuild} {
		dc, err := dynamics.NewSmokeScaleConfig(mode)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := dynamics.Run(dc, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		cfg := smokeShardConfig(t, 1, 2, mode)
		res, err := Run(cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		refSteps := make([]Step, len(ref.Steps))
		for i, s := range ref.Steps {
			refSteps[i] = Step{TimeMin: s.TimeMin, HitRatio: s.HitRatio, Replaced: s.Replaced}
		}
		sameSteps(t, fmt.Sprintf("mode %d", int(mode)), res.Steps, refSteps)
		for a := range ref.Replacements {
			if res.Replacements[a] != ref.Replacements[a] {
				t.Errorf("mode %v: track %d replacements %d, want %d", mode, a, res.Replacements[a], ref.Replacements[a])
			}
		}
		if res.Handoffs != 0 || res.Grows != 0 {
			t.Errorf("mode %v: single shard reported %d handoffs, %d grows", mode, res.Handoffs, res.Grows)
		}
	}
}

// TestShardSmoke is the CI shard smoke: two cells on the smoke scenario,
// pinning (a) worker-count determinism, (b) the incremental handoff deltas
// bit-identical to the per-cell rebuild reference, and (c) the sharded
// aggregate within a coarse tolerance of the unsharded hit ratio — cells
// place and serve autonomously (boundary users lose cross-cell service),
// so the aggregates are close but not equal at this radio-coupled scale.
func TestShardSmoke(t *testing.T) {
	serial, err := Run(smokeShardConfig(t, 2, 1, dynamics.Incremental), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(smokeShardConfig(t, 2, 4, dynamics.Incremental), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "workers", parallel.Steps, serial.Steps)

	rebuilt, err := Run(smokeShardConfig(t, 2, 2, dynamics.Rebuild), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "rebuild reference", serial.Steps, rebuilt.Steps)

	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dynamics.Run(dc, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Steps {
		for a := range ref.Steps[i].HitRatio {
			if d := math.Abs(serial.Steps[i].HitRatio[a] - ref.Steps[i].HitRatio[a]); d > 0.1 {
				t.Errorf("step %d track %d: sharded %v vs unsharded %v (|diff| %v > 0.1)",
					i, a, serial.Steps[i].HitRatio[a], ref.Steps[i].HitRatio[a], d)
			}
		}
	}
	if serial.Handoffs == 0 {
		t.Error("smoke timeline produced no handoffs; the scenario no longer exercises ownership transfer")
	}
}

// TestGrow forces slot-table overflow with a tiny headroom and checks the
// grown timeline still matches the per-cell rebuild reference bit for bit
// (growth is part of the deterministic plan phase, not a drift source).
func TestGrow(t *testing.T) {
	mk := func(mode dynamics.Mode) Config {
		cfg := smokeShardConfig(t, 2, 2, mode)
		cfg.SlotHeadroom = 1e-9
		cfg.DurationMin = 80
		return cfg
	}
	inc, err := Run(mk(dynamics.Incremental), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	reb, err := Run(mk(dynamics.Rebuild), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "grow", inc.Steps, reb.Steps)
	if inc.Grows != reb.Grows {
		t.Errorf("grows diverged: %d vs %d", inc.Grows, reb.Grows)
	}
	t.Logf("grows=%d handoffs=%d", inc.Grows, inc.Handoffs)
}

func TestMakeGrid(t *testing.T) {
	cases := []struct{ shards, gx, gy int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {8, 4, 2}, {7, 7, 1}, {9, 3, 3}, {12, 4, 3},
	}
	for _, c := range cases {
		g := makeGrid(c.shards, 1000)
		if g.gx != c.gx || g.gy != c.gy {
			t.Errorf("makeGrid(%d): %dx%d, want %dx%d", c.shards, g.gx, g.gy, c.gx, c.gy)
		}
	}
	g := makeGrid(4, 1000)
	if got := g.cellOf(geom.Point{X: 1000, Y: 1000}); got != 3 {
		t.Errorf("corner point landed in cell %d, want 3 (clamped)", got)
	}
	if got := g.cellOf(geom.Point{X: 0, Y: 0}); got != 0 {
		t.Errorf("origin landed in cell %d, want 0", got)
	}
}

// countingAlgorithm counts the Place calls of the algorithm it wraps.
type countingAlgorithm struct {
	placement.Algorithm
	places *int
}

func (c countingAlgorithm) Place(e *placement.Evaluator, caps []int64) (*placement.Placement, error) {
	*c.places++
	return c.Algorithm.Place(e, caps)
}

// TestTraceServingRejectedBeforeSolve pins that NewEngine rejects an
// invalid serving configuration in Config.Validate, before any cell solves,
// and that the error carries one "shard:" prefix.
func TestTraceServingRejectedBeforeSolve(t *testing.T) {
	for _, cloudBps := range []float64{-1, math.NaN(), math.Inf(1)} {
		cfg := smokeShardConfig(t, 2, 1, dynamics.Incremental)
		cfg.Trace = &TraceConfig{RequestsPerUserPerHour: 30, Event: cachesim.EventConfig{CloudRateBps: cloudBps}}
		places := 0
		for a := range cfg.Tracks {
			cfg.Tracks[a].Algorithm = countingAlgorithm{cfg.Tracks[a].Algorithm, &places}
		}
		_, err := NewEngine(cfg, rng.New(1))
		if err == nil {
			t.Fatalf("cloud %v: engine built", cloudBps)
		}
		if places != 0 {
			t.Errorf("cloud %v: %d Place calls before the error %q", cloudBps, places, err)
		}
		if n := strings.Count(err.Error(), "shard:"); n != 1 || strings.Contains(err.Error(), "dynamics:") {
			t.Errorf("error %q carries %d \"shard:\" prefixes, want 1 and no \"dynamics:\"", err, n)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	base := func() Config { return smokeShardConfig(t, 2, 0, dynamics.Incremental) }

	cfg := base()
	cfg.Instance = nil
	if err := cfg.Validate(); err == nil {
		t.Error("nil instance accepted")
	}
	cfg = base()
	cfg.Shards = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero shards accepted")
	}
	// A stateful trigger that implements TriggerCloner is accepted at any
	// shard count: each cell gets its own clone. One that does not must be
	// rejected at Shards > 1 — sharing its history across cells would mix
	// their measurement streams.
	cfg = base()
	cfg.Tracks = []dynamics.Track{{Algorithm: cfg.Tracks[0].Algorithm, Trigger: &dynamics.TraceTrigger{Degradation: 0.1}}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("clonable stateful trigger rejected with 2 shards: %v", err)
	}
	cfg.Tracks[0].Trigger = &statefulTrigger{}
	if err := cfg.Validate(); err == nil {
		t.Error("unclonable stateful trigger accepted with 2 shards")
	}
	cfg.Shards = 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("stateful trigger rejected with 1 shard: %v", err)
	}
	cfg = base()
	cfg.Capacities = cfg.Capacities[:1]
	if err := cfg.Validate(); err == nil {
		t.Error("capacity length mismatch accepted")
	}
	cfg = base()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
	cfg = base()
	cfg.MeasureWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative MeasureWorkers accepted")
	}
	// A slot length that rounds to no slot per checkpoint would freeze
	// every user.
	for _, slotS := range []float64{0, 1300, math.NaN()} {
		cfg = base()
		cfg.SlotS = slotS
		if err := cfg.Validate(); err == nil {
			t.Errorf("SlotS %v accepted", slotS)
		}
	}

	// Trace arrival parameters get the synthesizer's own check, so NaN and
	// infinities fail here rather than in a cell's first measurement.
	// WindowS 0 selects the checkpoint length and is valid.
	for _, tc := range []struct{ rate, window float64 }{
		{math.NaN(), 0}, {math.Inf(1), 0}, {-1, 0},
		{30, math.NaN()}, {30, math.Inf(1)}, {30, -1},
	} {
		cfg = base()
		cfg.Trace = &TraceConfig{RequestsPerUserPerHour: tc.rate, WindowS: tc.window}
		if err := cfg.Validate(); err == nil {
			t.Errorf("trace rate %v, window %v accepted", tc.rate, tc.window)
		}
	}
	cfg = base()
	cfg.Trace = &TraceConfig{RequestsPerUserPerHour: 30}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default trace window rejected: %v", err)
	}

	// Far more shards than the deployment supports: some cell owns no
	// servers and construction must fail loudly.
	cfg = base()
	cfg.Shards = 64
	if _, err := NewEngine(cfg, rng.New(1)); err == nil {
		t.Error("64 cells over 4 servers accepted")
	}

	// A plain TraceMeasurement lifts into Config.Trace; one that is already
	// shard-specialized (UserKey or StreamSalt set) must be rejected, and so
	// must any other custom measurement.
	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	dc.Measurement = &dynamics.TraceMeasurement{RequestsPerUserPerHour: 30, WindowS: 600}
	lifted, err := FromDynamics(dc, 2)
	if err != nil {
		t.Fatalf("plain trace measurement rejected: %v", err)
	}
	if lifted.Trace == nil || lifted.Trace.RequestsPerUserPerHour != 30 || lifted.Trace.WindowS != 600 {
		t.Errorf("trace measurement lifted incorrectly: %+v", lifted.Trace)
	}
	dc.Measurement = &dynamics.TraceMeasurement{RequestsPerUserPerHour: 30, WindowS: 600, StreamSalt: 7}
	if _, err := FromDynamics(dc, 2); err == nil {
		t.Error("shard-specialized trace measurement lifted silently")
	}
	dc.Measurement = fakeMeasurement{}
	if _, err := FromDynamics(dc, 2); err == nil {
		t.Error("custom measurement lifted silently")
	}
}

// statefulTrigger implements dynamics.Resetter but not TriggerCloner, so
// Validate must reject it at Shards > 1.
type statefulTrigger struct{}

func (statefulTrigger) Name() string                    { return "stateful" }
func (statefulTrigger) Fire(int, float64, float64) bool { return false }
func (statefulTrigger) Reset()                          {}

// fakeMeasurement is a custom Measurement FromDynamics cannot lift.
type fakeMeasurement struct{}

func (fakeMeasurement) Name() string { return "fake" }
func (fakeMeasurement) Measure(*placement.Evaluator, []*placement.Placement, *rng.Source) ([]float64, error) {
	return nil, nil
}

// TestBenchConfig keeps the benchmark scenario constructor honest at toy
// dimensions (the real dimensions are exercised by cmd/benchdyn -shard).
func TestBenchConfig(t *testing.T) {
	cfg, err := NewBenchConfig(60, 10, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.DurationMin = 20
	res, err := Run(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(res.Steps))
	}
	for _, s := range res.Steps {
		if !(s.HitRatio[0] >= 0 && s.HitRatio[0] <= 1) {
			t.Errorf("aggregate hit ratio %v outside [0,1]", s.HitRatio[0])
		}
	}
}
