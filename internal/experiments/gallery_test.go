package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"trimcaching/internal/dynamics"
)

func runGalleryPair(t *testing.T, cfg GalleryConfig) (*GalleryResult, *GalleryResult) {
	t.Helper()
	un, err := RunGallery(cfg)
	if err != nil {
		t.Fatalf("%s unsharded: %v", cfg.Name, err)
	}
	sh, err := RunGallerySharded(cfg)
	if err != nil {
		t.Fatalf("%s sharded: %v", cfg.Name, err)
	}
	return un, sh
}

// TestGalleryGoldens runs every built-in scenario through both engines at
// the reduced scale and pins the complete timelines — hit ratios to the
// last bit, event placement, replacement counts, recovery latency — as a
// GalleryArtifact byte-compared against the checked-in goldens. Refresh
// with UPDATE_GOLDENS=1 go test ./internal/experiments -run TestGalleryGoldens.
func TestGalleryGoldens(t *testing.T) {
	for _, name := range GalleryNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg, err := GalleryScenario(name, DefaultGalleryConfig())
			if err != nil {
				t.Fatal(err)
			}
			un, sh := runGalleryPair(t, cfg)
			assertGalleryShape(t, cfg, un)
			assertGalleryShape(t, cfg, sh)

			got, err := json.MarshalIndent(GalleryArtifact{Config: cfg, Unsharded: un, Sharded: sh}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", name+".golden.json")
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
				t.Fatalf("golden drift in %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// assertGalleryShape checks the scenario-specific invariants that make a
// timeline a proof, beyond byte equality with the golden.
func assertGalleryShape(t *testing.T, cfg GalleryConfig, res *GalleryResult) {
	t.Helper()
	leg := "unsharded"
	if res.Sharded {
		leg = "sharded"
	}
	checkpoints := cfg.DurationMin / cfg.CheckpointMin
	if len(res.Steps) != checkpoints+1 {
		t.Fatalf("%s: %d steps, want %d", leg, len(res.Steps), checkpoints+1)
	}
	for i, st := range res.Steps {
		if st.HitRatio <= 0 || st.HitRatio > 1 {
			t.Fatalf("%s: step %d hit ratio %v outside (0, 1]", leg, i, st.HitRatio)
		}
	}
	switch cfg.Name {
	case "outage", "degrade", "regional":
		if res.PreOutageHit <= 0 {
			t.Errorf("%s: no pre-fault hit recorded", leg)
		}
		third := (checkpoints + 2) / 3
		if dip := res.Steps[third].HitRatio; dip >= res.PreOutageHit {
			t.Errorf("%s: %s did not dent the hit ratio: %v -> %v", leg, cfg.Name, res.PreOutageHit, dip)
		}
		if res.RecoveryCheckpoints < 0 {
			t.Errorf("%s: timeline never recovered to %v of %v", leg, cfg.RecoveryFrac, res.PreOutageHit)
		}
	case "churn":
		if res.FinalModels != cfg.Models+cfg.ReserveModels {
			t.Errorf("%s: final library %d models, want %d", leg, res.FinalModels, cfg.Models+cfg.ReserveModels)
		}
	default:
		if res.FinalModels != cfg.Models {
			t.Errorf("%s: final library %d models, want %d", leg, res.FinalModels, cfg.Models)
		}
	}
}

// TestGalleryDeterminism pins every scenario timeline bit-identical across
// worker counts and across Incremental vs Rebuild refreshes, through both
// engines, on a shortened clock.
func TestGalleryDeterminism(t *testing.T) {
	for _, name := range GalleryNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := DefaultGalleryConfig()
			base.DurationMin = 60
			cfg, err := GalleryScenario(name, base)
			if err != nil {
				t.Fatal(err)
			}
			wantUn, wantSh := runGalleryPair(t, cfg)

			workers := cfg
			workers.Workers = 3
			gotUn, gotSh := runGalleryPair(t, workers)
			assertGalleryEqual(t, "workers 3 vs default unsharded", gotUn, wantUn)
			assertGalleryEqual(t, "workers 3 vs default sharded", gotSh, wantSh)

			rebuild := cfg
			rebuild.Mode = dynamics.Rebuild
			gotUn, gotSh = runGalleryPair(t, rebuild)
			assertGalleryEqual(t, "rebuild vs incremental unsharded", gotUn, wantUn)
			assertGalleryEqual(t, "rebuild vs incremental sharded", gotSh, wantSh)
		})
	}
}

func assertGalleryEqual(t *testing.T, label string, got, want *GalleryResult) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s diverged\n--- got ---\n%s\n--- want ---\n%s", label, g, w)
	}
}

// TestGalleryTargetsAgree pins the two legs against each other: at
// Shards = 1 the sharded engine is one whole-area cell, bit-identical to
// the unsharded engine, so every family must produce the same result apart
// from the sharded-leg fields. This is the check that both engines map
// every scenario event onto the same engine operations.
func TestGalleryTargetsAgree(t *testing.T) {
	for _, name := range GalleryNames() {
		if name == "churn" {
			// churn diverges after its first grow: the unsharded rebuild
			// draws fading from the seed's "grow" stream of that checkpoint,
			// while a grown shard cell keeps its construction stream.
			// Aligning either stream would move the churn golden.
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			base := DefaultGalleryConfig()
			base.Shards = 1
			cfg, err := GalleryScenario(name, base)
			if err != nil {
				t.Fatal(err)
			}
			un, sh := runGalleryPair(t, cfg)
			if !sh.Sharded {
				t.Fatal("sharded leg not labelled sharded")
			}
			sh.Sharded, sh.Handoffs, sh.Grows = false, 0, 0
			assertGalleryEqual(t, "shards=1 vs unsharded", sh, un)
		})
	}
}

// TestGalleryConfigValidate checks that Validate rejects each bad field of
// a gallery config, which is decoded from JSON and so carries any value.
func TestGalleryConfigValidate(t *testing.T) {
	base, err := GalleryScenario("churn", DefaultGalleryConfig())
	if err != nil {
		t.Fatal(err)
	}
	muts := map[string]func(*GalleryConfig){
		"zero servers":          func(c *GalleryConfig) { c.Servers = 0 },
		"negative reserve":      func(c *GalleryConfig) { c.ReserveModels = -1 },
		"checkpoint > duration": func(c *GalleryConfig) { c.CheckpointMin = c.DurationMin + 1 },
		"zero realizations":     func(c *GalleryConfig) { c.Realizations = 0 },
		"zero shards":           func(c *GalleryConfig) { c.Shards = 0 },
		"negative workers":      func(c *GalleryConfig) { c.Workers = -1 },
		"recovery above 1":      func(c *GalleryConfig) { c.RecoveryFrac = 1.5 },
		"event past the end":    func(c *GalleryConfig) { c.Timeline.Events[0].Checkpoint = 99 },
		"unknown event kind":    func(c *GalleryConfig) { c.Timeline.Events[0].Kind = "meteor" },
		"grow beyond reserve":   func(c *GalleryConfig) { c.ReserveModels = 1 },
	}
	for name, mut := range muts {
		cfg := base
		cfg.Timeline.Events = append([]Event(nil), base.Timeline.Events...)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGalleryRejectsFrozenWalk: a slot over twice its checkpoint's length
// rounds to no slot per checkpoint, so every user would stand still; a
// gallery config (read from JSON) must reject it instead of replaying a
// frozen timeline.
func TestGalleryRejectsFrozenWalk(t *testing.T) {
	cfg := DefaultGalleryConfig()
	cfg.SlotS = 1300
	if _, err := RunGallery(cfg); err == nil {
		t.Fatal("a 1300 s slot in a 10 min checkpoint replayed")
	}
}

// TestGalleryDemandThenGrow pins a library grow under an active demand
// blend: the grown instance is built over the blended rows, so the
// unsharded leg stays Incremental == Rebuild and every hit ratio stays in
// (0, 1].
func TestGalleryDemandThenGrow(t *testing.T) {
	cfg := DefaultGalleryConfig()
	cfg.Name, cfg.DurationMin = "demand-grow", 60
	cfg.Timeline = Timeline{Events: []Event{
		{Checkpoint: 1, Kind: EventDemand, HotModel: 0, Weight: 0.8, MassScale: 1.5},
		{Checkpoint: 3, Kind: EventGrow, Models: 4},
	}}
	inc, err := RunGallery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range inc.Steps {
		if st.HitRatio <= 0 || st.HitRatio > 1 {
			t.Fatalf("step %d hit ratio %v outside (0, 1]", i, st.HitRatio)
		}
	}
	rebuild := cfg
	rebuild.Mode = dynamics.Rebuild
	reb, err := RunGallery(rebuild)
	if err != nil {
		t.Fatal(err)
	}
	assertGalleryEqual(t, "rebuild vs incremental", reb, inc)
}
