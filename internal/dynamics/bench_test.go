package dynamics

// Benchmarks for the incremental dynamics engine at LoRA scale (M = 10,
// K = 300 users, I = 1000 adapter models, LLM-grade deadlines): the regime
// the ROADMAP's north star cares about, where a full per-checkpoint
// rebuild is O(M·K·I). "Refresh" is the instance update alone; "Checkpoint"
// is refresh plus a forced placement re-solve (warm repair vs cold solve).
// Fading measurement is excluded: it is identical in both modes.

import (
	"testing"

	"trimcaching/internal/rng"
)

// LoRAScaleConfig builds the benchmark engine config: shared by the
// testing.B benchmarks below and cmd/benchdyn's JSON emitter.
func LoRAScaleConfig(tb testing.TB, mode Mode) Config {
	cfg, err := NewLoRAScaleConfig(mode)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg
}

func loraEngine(b *testing.B, mode Mode) *Engine {
	b.Helper()
	e, err := NewEngine(LoRAScaleConfig(b, mode), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up checkpoint: the incremental mode builds its one-time flip
	// index on the first update; keep that out of the per-checkpoint cost.
	if err := e.Advance(); err != nil {
		b.Fatal(err)
	}
	if err := e.Refresh(); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchRefresh(b *testing.B, mode Mode) {
	e := loraEngine(b, mode)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		if err := e.Advance(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefreshRebuild(b *testing.B)     { benchRefresh(b, Rebuild) }
func BenchmarkRefreshIncremental(b *testing.B) { benchRefresh(b, Incremental) }

func benchCheckpoint(b *testing.B, mode Mode) {
	e := loraEngine(b, mode)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		if err := e.Advance(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
		p, err := e.resolve(0)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.accPairs[0].Zero()
		e.placements[0] = p
		b.StartTimer()
	}
}

func BenchmarkCheckpointRebuild(b *testing.B)     { benchCheckpoint(b, Rebuild) }
func BenchmarkCheckpointIncremental(b *testing.B) { benchCheckpoint(b, Incremental) }

// BenchmarkTimelineIncremental runs a short end-to-end timeline including
// fading measurement, for the wall-clock trajectory in CI.
func benchTimeline(b *testing.B, mode Mode) {
	cfg := LoRAScaleConfig(b, mode)
	cfg.DurationMin = 30
	cfg.Realizations = 4
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		fresh := LoRAScaleConfig(b, mode)
		cfg.Instance = fresh.Instance
		b.StartTimer()
		if _, err := Run(cfg, rng.New(uint64(n))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimelineRebuild(b *testing.B)     { benchTimeline(b, Rebuild) }
func BenchmarkTimelineIncremental(b *testing.B) { benchTimeline(b, Incremental) }

// TestLoRAScaleConfigPlaces guards the benchmark setting itself: with
// LLM-grade deadlines the solver must produce a non-trivial placement
// (an empty one would make every benchmark vacuous).
func TestLoRAScaleConfigPlaces(t *testing.T) {
	if testing.Short() {
		t.Skip("LoRA-scale instance build in -short mode")
	}
	cfg := LoRAScaleConfig(t, Incremental)
	e, err := NewEngine(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := placedPairs(e.Placement(0)); n == 0 {
		t.Fatal("LoRA-scale benchmark scenario places nothing")
	}
	if e.Baseline(0) == 0 {
		t.Fatal("LoRA-scale benchmark baseline hit ratio is zero")
	}
}
