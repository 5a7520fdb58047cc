package shard

import (
	"sort"
	"testing"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
)

// driveDegradeTimeline runs a sharded smoke timeline with a regional
// degradation (every server the region contains) before checkpoint 1 and a
// restore before checkpoint 2, forcing replaces on both edges, and returns
// the aggregated steps.
func driveDegradeTimeline(t *testing.T, cfg Config, seed uint64, region geom.Region, bytes int64) []Step {
	t.Helper()
	se, err := NewEngine(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	servers, err := cfg.Instance.Topology().ServersIn(region)
	if err != nil {
		t.Fatal(err)
	}
	copyStep := func(st Step) Step {
		return Step{
			TimeMin:  st.TimeMin,
			HitRatio: append([]float64(nil), st.HitRatio...),
			Replaced: append([]bool(nil), st.Replaced...),
		}
	}
	steps := []Step{copyStep(se.InitialStep())}
	for cp := 1; cp <= se.Checkpoints(); cp++ {
		if cp == 1 || cp == 2 {
			budget := bytes
			if cp == 2 {
				budget = -1
			}
			for _, m := range servers {
				if err := se.SetServerCapacity(m, budget); err != nil {
					t.Fatal(err)
				}
			}
			if err := se.ForceReplace(cp); err != nil {
				t.Fatal(err)
			}
		}
		st, err := se.Checkpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, copyStep(st))
	}
	return steps
}

// TestShardDegradeSingleShardMatchesDynamics pins the sharded degradation
// seam at Shards = 1 against the unsharded engine driving the identical
// event schedule: per-server SetServerCapacity over the region's servers
// plus ForceReplace through the single cell must be bit-identical to
// dynamics.Engine.DegradeRegion + Replace.
func TestShardDegradeSingleShardMatchesDynamics(t *testing.T) {
	region := geom.RectRegion(0, 0, 300, 600)
	const budget = 4 << 30
	got := driveDegradeTimeline(t, smokeShardConfig(t, 1, 1, dynamics.Incremental), 7, region, budget)

	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dynamics.NewEngine(dc, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{{TimeMin: 0, HitRatio: []float64{eng.Baseline(0)}, Replaced: []bool{false}}}
	for cp := 1; cp <= eng.Checkpoints(); cp++ {
		if cp == 1 || cp == 2 {
			b := int64(budget)
			if cp == 2 {
				b = -1
			}
			if err := eng.DegradeRegion(region, b); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Replace(0, cp); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Refresh(); err != nil {
			t.Fatal(err)
		}
		st, err := eng.Step(cp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Step{
			TimeMin:  st.TimeMin,
			HitRatio: append([]float64(nil), st.HitRatio...),
			Replaced: append([]bool(nil), st.Replaced...),
		})
	}
	sameSteps(t, "single-shard degrade vs dynamics", got, want)
	if got[1].HitRatio[0] >= got[0].HitRatio[0] {
		t.Errorf("degradation did not dent the hit ratio: t0 %v, degraded %v", got[0].HitRatio[0], got[1].HitRatio[0])
	}
}

// TestShardDegradeAcrossCellsDeterministic pins the multi-cell regional
// degradation timeline bit-identical across worker counts and cell refresh
// modes (Rebuild replays the reduced budgets through Instance.Rebuild),
// with the failure domain spanning both cells.
func TestShardDegradeAcrossCellsDeterministic(t *testing.T) {
	region := geom.RectRegion(0, 100, 600, 500) // a horizontal band across the 2-cell split
	const budget = 4 << 30
	want := driveDegradeTimeline(t, smokeShardConfig(t, 2, 1, dynamics.Incremental), 7, region, budget)
	sameSteps(t, "workers 4 vs 1",
		driveDegradeTimeline(t, smokeShardConfig(t, 2, 4, dynamics.Incremental), 7, region, budget), want)
	sameSteps(t, "rebuild vs incremental",
		driveDegradeTimeline(t, smokeShardConfig(t, 2, 2, dynamics.Rebuild), 7, region, budget), want)
}

// TestShardDegradeSurvivesGrowLibrary pins the cell-rebuild re-apply: a
// degradation active when GrowLibrary rebuilds every cell must carry into
// the rebuilt engines (reduced live capacity, capacity-blocked models in
// the fresh cell instance), and a restore afterwards must return the
// configured capacity — not the degraded value the rebuilt engine was
// constructed with.
func TestShardDegradeSurvivesGrowLibrary(t *testing.T) {
	cfg := smokeShardConfig(t, 2, 1, dynamics.Incremental)
	se, err := NewEngine(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	const m = 1
	const budget = 4 << 30
	if err := se.SetServerCapacity(m, budget); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Checkpoint(1); err != nil {
		t.Fatal(err)
	}

	// Rebuild every cell over a same-size instance at the walked positions
	// (the GrowLibrary contract exercised in TestGrowLibraryRejectsBadInstances).
	stale := cfg.Instance
	topoNow, err := stale.Topology().WithUserPositions(se.Positions())
	if err != nil {
		t.Fatal(err)
	}
	relocated, err := scenario.New(topoNow, stale.Library(), stale.Workload(), stale.Wireless())
	if err != nil {
		t.Fatal(err)
	}
	if err := se.GrowLibrary(relocated); err != nil {
		t.Fatal(err)
	}

	var owner *cell
	var local int
	for _, sh := range se.cells {
		j := sort.SearchInts(sh.servers, m)
		if j < len(sh.servers) && sh.servers[j] == m {
			owner, local = sh, j
		}
	}
	if owner == nil {
		t.Fatalf("server %d owned by no cell", m)
	}
	if got := owner.eng.ServerCapacityBytes(local); got != budget {
		t.Fatalf("rebuilt cell's live capacity is %d, want %d", got, budget)
	}
	// A capacity block takes the server out of every user's reach row for
	// the blocked model; the restore check below shows the pair is
	// reachable at these positions once the block lifts.
	reaching := func() int {
		ins, n := owner.eng.Instance(), 0
		for k := 0; k < ins.NumUsers(); k++ {
			if ins.ServerMask(k, 0).Has(local) {
				n++
			}
		}
		return n
	}
	if n := reaching(); n != 0 {
		t.Fatalf("rebuilt cell instance lost the capacity block: %d users reach model 0 on server %d", n, m)
	}
	if err := se.SetServerCapacity(m, -1); err != nil {
		t.Fatal(err)
	}
	if got := owner.eng.ServerCapacityBytes(local); got != cfg.Capacities[m] {
		t.Fatalf("restored capacity is %d, want the configured %d", got, cfg.Capacities[m])
	}
	if reaching() == 0 {
		t.Fatal("restore left the capacity block in place")
	}
	if _, err := se.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
}

// TestShardFaultCheckpointAllocFree is the sharded half of the fault-path
// allocation pin: after an outage plus a degradation (and the forced
// replaces), steady-state checkpoints between fault events still allocate
// nothing once the capacity-mask scratch has grown.
func TestShardFaultCheckpointAllocFree(t *testing.T) {
	cfg := smokeShardConfig(t, 2, 1, dynamics.Incremental)
	cfg.Tracks = []dynamics.Track{{Algorithm: cfg.Tracks[0].Algorithm, Trigger: dynamics.NeverTrigger{}}}
	cfg.MeasureWorkers = 1
	e, err := NewEngine(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cp := 0
	checkpoint := func() {
		cp++
		if _, err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		checkpoint()
	}
	if err := e.SetServersDown([]int{0}, true); err != nil {
		t.Fatal(err)
	}
	if err := e.SetServerCapacity(2, 4<<30); err != nil {
		t.Fatal(err)
	}
	cp++
	if err := e.ForceReplace(cp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		checkpoint()
	}
	grows := e.Grows()
	if avg := testing.AllocsPerRun(6, checkpoint); avg != 0 {
		t.Fatalf("degraded steady-state sharded checkpoint allocates %.1f times per run, want 0", avg)
	}
	if e.Grows() != grows {
		t.Fatalf("measured window grew a cell; pick a seed/warm-up that stays within slot headroom")
	}
}
