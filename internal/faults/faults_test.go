package faults

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/experiments"
	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

// testProcess is a fault process over the smoke deployment's 600 m area:
// two half-area failure domains plus an overlapping central disk, busy
// enough that an 8-checkpoint schedule usually carries several events.
func testProcess(checkpoints int) Config {
	return Config{
		Regions: []geom.Region{
			geom.RectRegion(0, 0, 300, 600),
			geom.RectRegion(300, 0, 600, 600),
			geom.DiskRegion(300, 300, 250),
		},
		Checkpoints: checkpoints,
		PDegrade:    0.3,
		PFail:       0.2,
		PRecover:    0.5,
		MinBytes:    3 << 30,
		MaxBytes:    6 << 30,
	}
}

// TestScheduleDeterministic pins the schedule draw: the same (config, seed)
// reproduces the identical timeline, and the chain emits well-formed event
// sequences per region — a fault before every recovery, budgets within the
// configured bounds, checkpoints ascending and in range.
func TestScheduleDeterministic(t *testing.T) {
	cfg := testProcess(12)
	tl, err := Schedule(cfg, rng.New(3).Split("process"))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Schedule(cfg, rng.New(3).Split("process"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(tl)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("same seed drew different schedules:\n%s\n%s", a, b)
	}
	if len(tl.Events) == 0 {
		t.Fatal("schedule drew no events; pick a busier process for the test")
	}
	last := 0
	perRegion := map[*geom.Region]regionState{}
	for e, ev := range tl.Events {
		if ev.Kind != experiments.EventRegional {
			t.Fatalf("event %d has kind %q, want regional", e, ev.Kind)
		}
		if ev.Checkpoint < last || ev.Checkpoint < 1 || ev.Checkpoint > cfg.Checkpoints {
			t.Fatalf("event %d at checkpoint %d out of order or range", e, ev.Checkpoint)
		}
		last = ev.Checkpoint
		state := perRegion[ev.Region]
		switch {
		case ev.CapacityBytes == 0:
			if state == stateDown {
				t.Fatalf("event %d blacks out an already-down region", e)
			}
			perRegion[ev.Region] = stateDown
		case ev.CapacityBytes < 0:
			if state == stateUp {
				t.Fatalf("event %d recovers an up region", e)
			}
			perRegion[ev.Region] = stateUp
		default:
			if state != stateUp {
				t.Fatalf("event %d browns out a region in state %d", e, state)
			}
			if ev.CapacityBytes < cfg.MinBytes || ev.CapacityBytes > cfg.MaxBytes {
				t.Fatalf("event %d budget %d outside [%d, %d]", e, ev.CapacityBytes, cfg.MinBytes, cfg.MaxBytes)
			}
			perRegion[ev.Region] = stateDegraded
		}
	}
}

// TestScheduleValidation exercises the config guards.
func TestScheduleValidation(t *testing.T) {
	base := testProcess(8)
	cases := []struct {
		label  string
		mutate func(*Config)
	}{
		{"no regions", func(c *Config) { c.Regions = nil }},
		{"bad region", func(c *Config) { c.Regions[0].Kind = "hex" }},
		{"no checkpoints", func(c *Config) { c.Checkpoints = 0 }},
		{"probability above 1", func(c *Config) { c.PRecover = 1.5 }},
		{"fault mass above 1", func(c *Config) { c.PDegrade, c.PFail = 0.7, 0.6 }},
		{"inverted budget bounds", func(c *Config) { c.MinBytes, c.MaxBytes = 4<<30, 2<<30 }},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Regions = append([]geom.Region(nil), base.Regions...)
		tc.mutate(&cfg)
		if _, err := Schedule(cfg, rng.New(1)); err == nil {
			t.Errorf("%s: Schedule accepted an invalid config", tc.label)
		}
	}
	if _, err := Schedule(base, nil); err == nil {
		t.Error("Schedule accepted a nil source")
	}
}

// soakBase builds the smoke deployment stretched to the given checkpoint
// count — a fresh instance per call, as RunSoak's replays require.
func soakBase(checkpoints int) func() (dynamics.Config, error) {
	return func() (dynamics.Config, error) {
		dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
		if err != nil {
			return dynamics.Config{}, err
		}
		dc.DurationMin = checkpoints * dc.CheckpointMin
		return dc, nil
	}
}

// chaosCheckpoints is the chaos soak's timeline length.
const chaosCheckpoints = 8

// chaosSoak is TestChaosSoak's configuration at the given schedule count.
func chaosSoak(schedules int) SoakConfig {
	return SoakConfig{
		NewBase:   soakBase(chaosCheckpoints),
		Process:   testProcess(chaosCheckpoints),
		Schedules: schedules,
		Shards:    2,
		Seed:      9,
	}
}

// TestChaosSoak is the CI chaos harness: randomized regional fault
// schedules replayed through five engine variants with every checkpoint's
// invariants asserted and all timelines pinned bit-identical. Short mode
// (the CI default, plain and under -race) runs two schedules.
func TestChaosSoak(t *testing.T) {
	schedules := 5
	if testing.Short() {
		schedules = 2
	}
	rep, err := RunSoak(chaosSoak(schedules))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckedCheckpoints != schedules*chaosCheckpoints {
		t.Errorf("checked %d checkpoints, want %d", rep.CheckedCheckpoints, schedules*chaosCheckpoints)
	}
	if rep.Blackouts+rep.Brownouts == 0 {
		t.Error("soak replayed no fault events; pick a busier process or seed")
	}
	if rep.Recoveries == 0 {
		t.Error("soak replayed no recoveries; pick a busier process or seed")
	}
}

// TestSoakRejectsCheckpointMismatch pins the process/deployment contract:
// a fault process spanning more checkpoints than the base timeline draws
// events no replay reaches, and one spanning fewer leaves the timeline's
// tail fault-free, so RunSoak refuses both instead of miscounting.
func TestSoakRejectsCheckpointMismatch(t *testing.T) {
	for _, checkpoints := range []int{16, 2} {
		_, err := RunSoak(SoakConfig{
			NewBase:   soakBase(4),
			Process:   testProcess(checkpoints),
			Schedules: 2,
			Shards:    2,
			Seed:      9,
		})
		if err == nil {
			t.Errorf("a %d-checkpoint process over a 4-checkpoint deployment was accepted", checkpoints)
		}
	}
}

// TestSoakDeterministic pins the soak itself: two runs of the same config
// produce the identical report.
func TestSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{
		NewBase:   soakBase(6),
		Process:   testProcess(6),
		Schedules: 2,
		Shards:    2,
		Seed:      4,
	}
	a, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("soak reports diverged: %+v vs %+v", a, b)
	}
}

// soakTimeline is one variant's replay of one schedule in the soak golden.
type soakTimeline struct {
	Schedule  int         `json:"schedule"`
	Variant   string      `json:"variant"`
	HitRatios [][]float64 `json:"hitRatios"`
}

// TestSoakGolden pins the values the chaos soak replays, not only their
// agreement across variants: every variant's per-checkpoint hit ratios for
// TestChaosSoak's full configuration, byte-compared against the checked-in
// golden. Refresh with UPDATE_GOLDENS=1 go test ./internal/faults -run
// TestSoakGolden.
func TestSoakGolden(t *testing.T) {
	const schedules = 5
	var timelines []soakTimeline
	if _, err := runSoak(chaosSoak(schedules), func(n int, variant string, steps []dynamics.Step) {
		hits := make([][]float64, len(steps))
		for cp, st := range steps {
			hits[cp] = st.HitRatio
		}
		timelines = append(timelines, soakTimeline{Schedule: n, Variant: variant, HitRatios: hits})
	}); err != nil {
		t.Fatal(err)
	}
	if len(timelines) != 5*schedules {
		t.Fatalf("recorded %d timelines, want %d", len(timelines), 5*schedules)
	}
	got, err := json.MarshalIndent(timelines, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "soak.golden.json")
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDENS=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("soak golden drift in %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
