package shard

import (
	"testing"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/rng"
)

// TestShardEngineMemoryFootprint pins the sharded accounting seam: the
// engine's footprint is the sum of its cells plus coordinator state, every
// component is populated after a few checkpoints, and a coordinator-backed
// scale configuration reports no global reachability beyond what the cells
// themselves own.
func TestShardEngineMemoryFootprint(t *testing.T) {
	cfg := smokeShardConfig(t, 2, 1, dynamics.Incremental)
	e, err := NewEngine(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for cp := 1; cp <= 4; cp++ {
		if _, err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	f := e.MemoryFootprint()
	for _, c := range []struct {
		name  string
		bytes int64
	}{
		{"reach", f.Reach}, {"rank", f.Rank}, {"rates", f.Rates},
		{"workload", f.Workload}, {"topology", f.Topology},
		{"evaluator", f.Evaluator}, {"measurement", f.Measurement},
		{"scratch", f.Scratch}, {"coordinator", f.Coordinator},
	} {
		if c.bytes <= 0 {
			t.Errorf("%s bytes = %d, want > 0", c.name, c.bytes)
		}
	}
	// The sharded engine owns strictly more than one cell's worth of the
	// global instance: coordinator state plus per-cell copies.
	if gt := cfg.Instance.MemoryFootprint().Total(); f.Total() <= gt {
		t.Fatalf("sharded total %d not above the global instance's %d", f.Total(), gt)
	}
}

// TestScaleBenchConfigCoordinator: the scale benchmark's global instance is
// a coordinator — the O(M·K) rates and O(K·I) reachability the cells never
// read must not be materialized at the 1M-user row.
func TestScaleBenchConfigCoordinator(t *testing.T) {
	cfg, err := NewScaleBenchConfig(600, 9, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Instance.ReviseUsers(nil, nil, nil, nil); err == nil {
		t.Fatal("scale bench global instance must be a coordinator, which rejects updates")
	}
	gf := cfg.Instance.MemoryFootprint()
	if gf.Reach != 0 {
		t.Fatalf("coordinator reach bytes = %d, want 0", gf.Reach)
	}
	e, err := NewEngine(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for cp := 1; cp <= 3; cp++ {
		if _, err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	f := e.MemoryFootprint()
	if f.Reach <= 0 || f.Total() <= 0 {
		t.Fatalf("scale engine footprint reach=%d total=%d, want > 0", f.Reach, f.Total())
	}
}
