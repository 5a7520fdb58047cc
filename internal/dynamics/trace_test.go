package dynamics

import (
	"math"
	"strings"
	"testing"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
)

// newTraceConfig switches a testConfig onto the trace-driven measurement
// track. Each track gets its own trigger value: TraceTrigger is stateful.
func newTraceConfig(t *testing.T, seed uint64, mode Mode, workers int, degradation float64, window int) Config {
	t.Helper()
	ins := testInstance(t, seed)
	cfg := testConfig(ins, nil, mode, workers)
	for a := range cfg.Tracks {
		if degradation > 0 {
			cfg.Tracks[a].Trigger = &TraceTrigger{Window: window, Degradation: degradation}
		}
	}
	cfg.Realizations = 0 // must be ignored on the trace track
	cfg.Measurement = &TraceMeasurement{
		RequestsPerUserPerHour: 60,
		WindowS:                float64(cfg.CheckpointMin) * 60,
	}
	return cfg
}

// TestTraceTrackDeterministicAcrossWorkers pins the acceptance bar: the
// trace-driven timeline is bit-identical for any engine worker count.
func TestTraceTrackDeterministicAcrossWorkers(t *testing.T) {
	var want *Result
	for _, workers := range []int{1, 3, 8} {
		res, err := Run(newTraceConfig(t, 50, Incremental, workers, 0.1, 2), rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		assertResultsEqual(t, res, want, "trace track workers")
	}
}

// TestTraceIncrementalMatchesRebuild extends the engine-level golden
// equivalence to the trace track: serving synthesized windows against
// delta-updated instances must reproduce the full-rebuild timelines
// exactly, with and without replacements.
func TestTraceIncrementalMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name        string
		degradation float64
		window      int
	}{
		{"frozen", 0, 0},
		{"windowed trigger", 0.05, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc, err := Run(newTraceConfig(t, 51, Incremental, 2, tc.degradation, tc.window), rng.New(6))
			if err != nil {
				t.Fatal(err)
			}
			reb, err := Run(newTraceConfig(t, 51, Rebuild, 2, tc.degradation, tc.window), rng.New(6))
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, inc, reb, tc.name)
		})
	}
}

// TestTraceMeasurementIgnoresRealizations checks the Config.Measurement
// seam: with a measurement supplied, Realizations is unused and may be
// zero.
func TestTraceMeasurementIgnoresRealizations(t *testing.T) {
	cfg := newTraceConfig(t, 52, Incremental, 1, 0, 0)
	if cfg.Realizations != 0 {
		t.Fatal("test setup: Realizations should be zero")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("trace config with zero realizations rejected: %v", err)
	}
	// Without a measurement, zero realizations must still be rejected.
	cfg.Measurement = nil
	if err := cfg.Validate(); err == nil {
		t.Fatal("fading config with zero realizations accepted")
	}
}

func TestTraceTriggerFire(t *testing.T) {
	tr := &TraceTrigger{Window: 3, Degradation: 0.1}
	base := 0.8
	// Window not yet full: never fires, even on terrible measurements.
	if tr.Fire(1, 0.1, base) || tr.Fire(2, 0.1, base) {
		t.Fatal("fired before the window filled")
	}
	// Full window, mean 0.1 < 0.9*0.8: fires.
	if !tr.Fire(3, 0.1, base) {
		t.Fatal("did not fire on sustained degradation")
	}
	// A baseline change (the engine re-based after a replacement) must
	// reset the window: old degraded measurements cannot re-fire it.
	if tr.Fire(4, 0.79, 0.8001) || tr.Fire(5, 0.79, 0.8001) {
		t.Fatal("fired from stale pre-replacement measurements")
	}
	// Healthy measurements keep it quiet once the window refills.
	if tr.Fire(6, 0.79, 0.8001) {
		t.Fatal("fired on healthy measurements")
	}
	// Degraded mean fires again after the reset.
	tr.Fire(7, 0.5, 0.8001)
	tr.Fire(8, 0.5, 0.8001)
	if !tr.Fire(9, 0.5, 0.8001) {
		t.Fatal("did not fire after refilling with degraded measurements")
	}

	// Reset must clear the window even when the re-measured baseline
	// exactly equals the old one (hit ratios are discrete rationals, so
	// collisions happen — e.g. both measure 1.0).
	collide := &TraceTrigger{Window: 2, Degradation: 0.1}
	collide.Fire(1, 0.5, 1.0)
	if !collide.Fire(2, 0.5, 1.0) {
		t.Fatal("did not fire on sustained degradation")
	}
	collide.Reset()
	if collide.Fire(3, 1.0, 1.0) {
		t.Fatal("fired from stale measurements after Reset with colliding baseline")
	}

	// Window <= 1 behaves like an instantaneous threshold.
	inst := &TraceTrigger{Degradation: 0.1}
	if inst.Fire(1, 0.73, 0.8) {
		t.Fatal("fired inside the tolerance band")
	}
	if !inst.Fire(2, 0.71, 0.8) {
		t.Fatal("did not fire past the tolerance band")
	}
}

func TestTraceTriggerName(t *testing.T) {
	if got := (&TraceTrigger{Degradation: 0.1}).Name(); got != "10% measured degradation" {
		t.Fatalf("name %q", got)
	}
	if got := (&TraceTrigger{Window: 4, Degradation: 0.2}).Name(); got != "20% measured degradation over 4 checkpoints" {
		t.Fatalf("name %q", got)
	}
}

// TestTraceTriggerReplacesOnTimeline drives a full engine run with an
// aggressive trigger and checks replacements actually happen and re-base
// the baseline (the timeline records them).
func TestTraceTriggerReplacesOnTimeline(t *testing.T) {
	cfg := newTraceConfig(t, 53, Incremental, 2, 0.01, 1)
	res, err := Run(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Replacements {
		total += n
	}
	if total == 0 {
		t.Skip("1% degradation never hit on this draw; trigger behavior covered by unit tests")
	}
	found := false
	for _, st := range res.Steps {
		for a := range st.Replaced {
			if st.Replaced[a] {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("replacements counted but no step records one")
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

// TestTraceArrivalsRejectedBeforeSolve pins that NewEngine rejects bad
// trace arrival parameters and a bad serving configuration in
// Config.Validate, before the t = 0 solve of any track, and that the error
// reaches the caller with one "dynamics:" prefix.
func TestTraceArrivalsRejectedBeforeSolve(t *testing.T) {
	for _, tc := range []struct {
		rate, window float64
		cloudBps     float64
	}{
		{rate: math.NaN(), window: 600},
		{rate: math.Inf(1), window: 600},
		{rate: -1, window: 600},
		{rate: 60, window: math.NaN()},
		{rate: 60, window: math.Inf(1)},
		{rate: 60, window: 0},
		{rate: 60, window: 600, cloudBps: -1},
		{rate: 60, window: 600, cloudBps: math.NaN()},
		{rate: 60, window: 600, cloudBps: math.Inf(1)},
	} {
		cfg := newTraceConfig(t, 52, Incremental, 1, 0, 0)
		tm := cfg.Measurement.(*TraceMeasurement)
		tm.RequestsPerUserPerHour, tm.WindowS = tc.rate, tc.window
		tm.Event = cachesim.EventConfig{CloudRateBps: tc.cloudBps}
		places := 0
		for a := range cfg.Tracks {
			cfg.Tracks[a].Algorithm = countingAlgorithm{cfg.Tracks[a].Algorithm, &places}
		}
		_, err := NewEngine(cfg, rng.New(1))
		if err == nil {
			t.Fatalf("rate %v, window %v, cloud %v: engine built", tc.rate, tc.window, tc.cloudBps)
		}
		if places != 0 {
			t.Errorf("rate %v, window %v, cloud %v: %d Place calls before the error %q", tc.rate, tc.window, tc.cloudBps, places, err)
		}
		if n := strings.Count(err.Error(), "dynamics:"); n != 1 {
			t.Errorf("error %q carries %d \"dynamics:\" prefixes, want 1", err, n)
		}
	}
}
