package dynamics

import (
	"math"
	"testing"

	"trimcaching/internal/libgen"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// testInstance samples a fresh §VII-E-style instance. Each call returns an
// independent instance so incremental runs (which mutate it) cannot leak
// into other runs.
func testInstance(t testing.TB, seed uint64) *scenario.Instance {
	t.Helper()
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(5), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	gen := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: 6, NumUsers: 10, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	ins, err := scenario.Generate(lib, gen, rng.New(seed+100).Split("instance"))
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func testConfig(ins *scenario.Instance, trigger Trigger, mode Mode, workers int) Config {
	return Config{
		Instance:   ins,
		Capacities: placement.UniformCapacities(ins.NumServers(), 1<<30),
		Tracks: []Track{
			{Algorithm: placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}}, Trigger: trigger},
			{Algorithm: placement.SpecAlgorithm{Options: placement.DefaultSpecOptions()}, Trigger: trigger},
		},
		DurationMin:   60,
		CheckpointMin: 10,
		SlotS:         5,
		Realizations:  15,
		Workers:       workers,
		Mode:          mode,
	}
}

func assertResultsEqual(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, want %d", label, len(got.Steps), len(want.Steps))
	}
	for si := range want.Steps {
		g, w := got.Steps[si], want.Steps[si]
		if g.TimeMin != w.TimeMin {
			t.Fatalf("%s: step %d at %v min, want %v", label, si, g.TimeMin, w.TimeMin)
		}
		for a := range w.HitRatio {
			if g.HitRatio[a] != w.HitRatio[a] {
				t.Fatalf("%s: step %d track %d hit %.17g, want %.17g", label, si, a, g.HitRatio[a], w.HitRatio[a])
			}
			if g.Replaced[a] != w.Replaced[a] {
				t.Fatalf("%s: step %d track %d replaced %v, want %v", label, si, a, g.Replaced[a], w.Replaced[a])
			}
		}
	}
	for a := range want.Replacements {
		if got.Replacements[a] != want.Replacements[a] {
			t.Fatalf("%s: track %d made %d replacements, want %d", label, a, got.Replacements[a], want.Replacements[a])
		}
	}
}

// TestIncrementalMatchesRebuild is the engine-level golden equivalence on
// the §VII-E mobility timeline: delta reachability updates plus warm-start
// placement repair must reproduce the full-rebuild hit ratios exactly —
// with frozen placements (the Fig. 7 protocol) and with a threshold
// trigger that actually fires replacements. Every timeline also has the
// right shape: one step per checkpoint plus t = 0, at checkpoint times,
// with hit ratios in [0, 1], and the frozen ones never replace.
func TestIncrementalMatchesRebuild(t *testing.T) {
	for _, c := range []struct {
		trigger Trigger
		frozen  bool
	}{
		{NeverTrigger{}, true},
		{ThresholdTrigger{Degradation: 10}, true},    // Degradation >= 1 never fires
		{ThresholdTrigger{Degradation: 0.01}, false}, // eager: fires on 1% degradation
		{PeriodicTrigger{Every: 3}, false},
	} {
		name := c.trigger.Name()
		cfg := testConfig(testInstance(t, 1), c.trigger, Incremental, 0)
		inc, err := Run(cfg, rng.New(7))
		if err != nil {
			t.Fatalf("%s incremental: %v", name, err)
		}
		reb, err := Run(testConfig(testInstance(t, 1), c.trigger, Rebuild, 0), rng.New(7))
		if err != nil {
			t.Fatalf("%s rebuild: %v", name, err)
		}
		assertResultsEqual(t, inc, reb, name)

		if want := cfg.DurationMin/cfg.CheckpointMin + 1; len(inc.Steps) != want {
			t.Fatalf("%s: %d steps, want %d", name, len(inc.Steps), want)
		}
		for si, st := range inc.Steps {
			if st.TimeMin != float64(si*cfg.CheckpointMin) {
				t.Fatalf("%s: step %d at %v min", name, si, st.TimeMin)
			}
			for a, h := range st.HitRatio {
				if h < 0 || h > 1 || (si == 0 && h == 0) {
					t.Fatalf("%s: step %d track %d hit ratio %v", name, si, a, h)
				}
				if c.frozen && st.Replaced[a] {
					t.Fatalf("%s: frozen track %d replaced at step %d", name, a, si)
				}
			}
		}
		for a, n := range inc.Replacements {
			if c.frozen && n != 0 {
				t.Fatalf("%s: frozen track %d replaced %d times", name, a, n)
			}
		}
	}
}

// TestThresholdTriggerReplaces guards against the equivalence test
// comparing two trivially idle timelines: the eager trigger must actually
// fire within the hour.
func TestThresholdTriggerReplaces(t *testing.T) {
	var total int
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := Run(testConfig(testInstance(t, seed), ThresholdTrigger{Degradation: 0.01}, Incremental, 0), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Replacements {
			total += n
		}
	}
	if total == 0 {
		t.Fatal("one-percent-degradation trigger never fired across 3 mobile hours")
	}
}

// TestDeterminismAcrossWorkers pins the engine's concurrency contract: the
// timeline is a pure function of (config, seed), bit-identical for any
// fading worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 2, 7} {
		res, err := Run(testConfig(testInstance(t, 2), ThresholdTrigger{Degradation: 0.01}, Incremental, workers), rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		assertResultsEqual(t, res, ref, "workers")
	}
}

func TestConfigValidate(t *testing.T) {
	ins := testInstance(t, 3)
	good := testConfig(ins, NeverTrigger{}, Incremental, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Instance = nil },
		func(c *Config) { c.Capacities = c.Capacities[:1] },
		func(c *Config) { c.Tracks = nil },
		func(c *Config) { c.Tracks = []Track{{}} },
		func(c *Config) { c.DurationMin = 0 },
		func(c *Config) { c.CheckpointMin = 0 },
		func(c *Config) { c.DurationMin = 5; c.CheckpointMin = 10 },
		func(c *Config) { c.SlotS = 0 },
		func(c *Config) { c.SlotS = 1300 }, // rounds to no slot per 10 min checkpoint
		func(c *Config) { c.SlotS = math.NaN() },
		func(c *Config) { c.Realizations = 0 },
		func(c *Config) { c.Workers = -1 },
		func(c *Config) { c.Measurement = &FadingMeasurement{} },
		func(c *Config) { c.Measurement = &FadingMeasurement{Realizations: 4, Workers: -1} },
		func(c *Config) { c.Measurement = &TraceMeasurement{RequestsPerUserPerHour: math.NaN(), WindowS: 600} },
		func(c *Config) { c.Mode = Mode(99) },
	}
	for i, mut := range muts {
		c := testConfig(ins, NeverTrigger{}, Incremental, 0)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d: expected error", i)
		}
	}
}
