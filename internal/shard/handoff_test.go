package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// handoffScenario builds a 2-cell geometry in which no server's coverage
// disk crosses the x = 600 cell boundary: every user's covering set —
// and hence its direct rates, relay rate, and reachability row — lives
// entirely inside its owner cell, so the cell rows must equal the global
// rows restricted to the cell's servers bit for bit, even as users walk
// across the boundary and hand off. (With disks crossing the boundary a
// boundary user would be covered by foreign servers the owner cell does
// not model; that regime is pinned by the rebuild-reference equivalence
// instead.)
func handoffScenario(t *testing.T) (Config, *scenario.Instance) {
	t.Helper()
	const side, radius = 1200.0, 140.0
	servers := []geom.Point{
		// Cell A (x < 600): disks stay left of the boundary.
		{X: 150, Y: 200}, {X: 300, Y: 700}, {X: 430, Y: 1000}, {X: 200, Y: 480},
		// Cell B (x >= 600): disks stay right of the boundary.
		{X: 750, Y: 300}, {X: 900, Y: 800}, {X: 1050, Y: 150}, {X: 800, Y: 1000},
	}
	lib, err := libgen.GenerateLoRA(libgen.DefaultLoRAConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	w.CoverageRadiusM = radius
	w.BackhaulBps = 1e9
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5

	area, err := geom.NewArea(side)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	users := area.SamplePoints(src.Split("users"), 40)
	work, err := workload.Generate(len(users), lib.NumModels(), wl, src.Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *scenario.Instance {
		topo, err := topology.New(area, servers, users, radius)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := scenario.New(topo, lib, work, w)
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	engineIns, refIns := build(), build()
	cfg := Config{
		Instance:      engineIns,
		Capacities:    placement.UniformCapacities(len(servers), 8<<30),
		Tracks:        []dynamics.Track{{Algorithm: placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}}}},
		DurationMin:   60,
		CheckpointMin: 10,
		SlotS:         5,
		Realizations:  2,
		Shards:        2,
		SlotHeadroom:  0.1,
	}
	return cfg, refIns
}

// TestHandoffRowsMatchGlobal walks users across the cell boundary for six
// checkpoints and pins, at every checkpoint and for every user, the owner
// cell's per-user rates and reachability rows bit-identical to a global
// unsharded UpdateUsers on the same walk.
func TestHandoffRowsMatchGlobal(t *testing.T) {
	cfg, ref := handoffScenario(t)
	e, err := NewEngine(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	K, I := ref.NumUsers(), ref.NumModels()
	all := make([]int, K)
	for k := range all {
		all[k] = k
	}
	for cp := 1; cp <= e.Checkpoints(); cp++ {
		if _, err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ReviseUsers(nil, nil, all, e.Positions()); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < K; k++ {
			c := int(e.owner[k])
			slot, ok := -1, false
			for _, r := range e.refs[k] {
				if int(r.cell) == c {
					slot, ok = int(r.slot), true
				}
			}
			if !ok {
				t.Fatalf("cp %d: user %d not bound in its owner cell %d", cp, k, c)
			}
			ins := e.CellInstance(c)
			for j, m := range e.cells[c].servers {
				if got, want := ins.AvgRateBps(j, slot), ref.AvgRateBps(m, k); got != want {
					t.Fatalf("cp %d user %d server %d: rate %v, global %v", cp, k, m, got, want)
				}
			}
			for i := 0; i < I; i++ {
				for j, m := range e.cells[c].servers {
					if got, want := ins.Reachable(j, slot, i), ref.Reachable(m, k, i); got != want {
						t.Fatalf("cp %d user %d model %d server %d: reach %v, global %v", cp, k, i, m, got, want)
					}
				}
			}
		}
	}
	if e.Handoffs() == 0 {
		t.Error("no handoffs over six checkpoints; the walk no longer crosses the boundary")
	}
}

// TestHandoffWorkerDeterminism runs the handoff scenario under different
// cell-pool and measurement worker counts and pins identical timelines.
func TestHandoffWorkerDeterminism(t *testing.T) {
	run := func(workers, measure int) *Result {
		cfg, _ := handoffScenario(t)
		cfg.Workers = workers
		cfg.MeasureWorkers = measure
		res, err := Run(cfg, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1, 1)
	for _, wm := range [][2]int{{2, 1}, {4, 2}, {3, 4}} {
		got := run(wm[0], wm[1])
		sameSteps(t, "workers", got.Steps, base.Steps)
		if got.Handoffs != base.Handoffs || got.Grows != base.Grows {
			t.Errorf("workers %v: handoffs/grows %d/%d, want %d/%d",
				wm, got.Handoffs, got.Grows, base.Handoffs, base.Grows)
		}
	}
	if base.Handoffs == 0 {
		t.Error("no handoffs in determinism scenario")
	}
}

// TestBoundSlotRowsMatchGlobalUser pins the rank provider's contract over a
// two-cell run with handoffs, ownership flips and grows: after
// construction and after every checkpoint, each bound slot aliases its
// global user's deadline and inference rows, and its QoS thresholds and
// rank orders equal that user's in the global instance, bit for bit. Cells
// copy those rows instead of recomputing them, so a provider that copied
// another user's rows would show here.
func TestBoundSlotRowsMatchGlobalUser(t *testing.T) {
	cfg := smokeShardConfig(t, 2, 1, dynamics.Incremental)
	cfg.SlotHeadroom = 1e-9
	cfg.DurationMin = 80
	e, err := NewEngine(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	global := cfg.Instance
	gw := global.Workload()
	sameBits := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	check := func(label string) {
		t.Helper()
		bound := 0
		for c, sh := range e.cells {
			ins := e.CellInstance(c)
			w := ins.Workload()
			for s, g := range sh.slots {
				if g < 0 {
					continue
				}
				bound++
				if &w.DeadlineRow(s)[0] != &gw.DeadlineRow(int(g))[0] || &w.InferRow(s)[0] != &gw.InferRow(int(g))[0] {
					t.Fatalf("%s: cell %d slot %d is not bound to user %d's deadline and inference rows", label, c, s, g)
				}
				do, ro, dt, rt := ins.UserRankRows(s)
				gdo, gro, gdt, grt := global.UserRankRows(int(g))
				if !sameBits(dt, gdt) || !sameBits(rt, grt) {
					t.Fatalf("%s: cell %d slot %d thresholds differ from user %d's", label, c, s, g)
				}
				if !slices.Equal(do, gdo) || !slices.Equal(ro, gro) {
					t.Fatalf("%s: cell %d slot %d rank orders differ from user %d's", label, c, s, g)
				}
			}
		}
		if bound < global.NumUsers() {
			t.Fatalf("%s: %d bound slots for %d users", label, bound, global.NumUsers())
		}
	}
	check("construction")
	flips := 0
	for cp := 1; cp <= e.Checkpoints(); cp++ {
		// An ownership flip keeps the user's slot in the cell it comes to
		// own: the slot was a ghost there, so only its probability row moves.
		owner := slices.Clone(e.owner)
		visible := make([][]int32, len(e.refs))
		for k, refs := range e.refs {
			for _, r := range refs {
				visible[k] = append(visible[k], r.cell)
			}
		}
		if _, err := e.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
		for k, c := range e.owner {
			if c != owner[k] && slices.Contains(visible[k], c) {
				flips++
			}
		}
		check(fmt.Sprintf("checkpoint %d", cp))
	}
	if e.Handoffs() == 0 || flips == 0 || e.Grows() == 0 {
		t.Fatalf("run saw %d handoffs, %d ownership flips and %d grows; each must be exercised", e.Handoffs(), flips, e.Grows())
	}
	t.Logf("handoffs=%d flips=%d grows=%d", e.Handoffs(), flips, e.Grows())
}
