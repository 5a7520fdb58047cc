package scenario

import (
	"slices"
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/rng"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

func coordinatorTestGen(t *testing.T) (*Instance, *Instance) {
	t.Helper()
	lib, err := libgen.GenerateLoRA(libgen.DefaultLoRAConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	cfg := GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: 8, NumUsers: 30, CoverageRadiusM: 275},
		Wireless: wireless.DefaultConfig(),
		Workload: workload.DefaultConfig(),
	}
	full, err := Generate(lib, cfg, rng.New(3).Split("instance"))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := GenerateCoordinator(lib, cfg, rng.New(3).Split("instance"))
	if err != nil {
		t.Fatal(err)
	}
	return full, coord
}

// TestGenerateCoordinatorDrawIdentity pins the coordinator generator's draw
// against Generate's: same seed, same sub-streams, bit-identical topology,
// workload, and threshold rank rows. The scale benchmark depends on this —
// a sharded run over a coordinator global instance must see the exact
// deployment and workload a full global instance would have produced.
func TestGenerateCoordinatorDrawIdentity(t *testing.T) {
	full, coord := coordinatorTestGen(t)
	if !coord.coordinator || full.coordinator {
		t.Fatalf("coordinator = %v/%v, want true for the coordinator only", coord.coordinator, full.coordinator)
	}
	for m := 0; m < full.NumServers(); m++ {
		if coord.Topology().ServerPos(m) != full.Topology().ServerPos(m) {
			t.Fatalf("server %d position diverged", m)
		}
	}
	coordPos, fullPos := coord.Topology().UserPositions(), full.Topology().UserPositions()
	for k := 0; k < full.NumUsers(); k++ {
		if coordPos[k] != fullPos[k] {
			t.Fatalf("user %d position diverged", k)
		}
		wantRow, gotRow := full.ProbRow(k), coord.ProbRow(k)
		for i := range wantRow {
			if gotRow[i] != wantRow[i] {
				t.Fatalf("user %d model %d prob %v, want %v", k, i, gotRow[i], wantRow[i])
			}
		}
		wd, wr, wdt, wrt := full.UserRankRows(k)
		gd, gr, gdt, grt := coord.UserRankRows(k)
		if !slices.Equal(gdt, wdt) || !slices.Equal(grt, wrt) {
			t.Fatalf("user %d thresholds diverged", k)
		}
		if !slices.Equal(gd, wd) {
			t.Fatalf("user %d direct rank order diverged", k)
		}
		if !slices.Equal(gr, wr) {
			t.Fatalf("user %d relay rank order diverged", k)
		}
	}
}

// TestCoordinatorRejectsPositionState: coordinator instances carry no rate
// or reachability state, so the mutating position/workload entry points and
// shadowed generation must fail loudly rather than read absent tables.
func TestCoordinatorRejectsPositionState(t *testing.T) {
	_, coord := coordinatorTestGen(t)
	p := coord.Topology().UserPositions()[0]
	if _, err := coord.ReviseUsers(nil, nil, []int{0}, []geom.Point{p}); err == nil {
		t.Fatal("moving users on a coordinator must error")
	}
	if _, err := coord.ReviseUsers([]int{0}, nil, nil, nil); err == nil {
		t.Fatal("ReviseUsers on a coordinator must error")
	}

	lib, err := libgen.GenerateLoRA(libgen.DefaultLoRAConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	w.ShadowingStdDB = 4
	_, err = GenerateCoordinator(lib, GenConfig{
		Topology: topology.Config{AreaSideM: 500, NumServers: 3, NumUsers: 6, CoverageRadiusM: 275},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}, rng.New(5))
	if err == nil {
		t.Fatal("shadowed coordinator generation must error")
	}
}

// TestCoordinatorFootprint pins what the coordinator actually saves: no
// reachability words, no rate tables, while the rank index (two uint16
// model orders per user and model, no sorted threshold copies) and
// workload match the full instance's. This is the memory-accounting seam
// the K=1M benchmark reports through.
func TestCoordinatorFootprint(t *testing.T) {
	full, coord := coordinatorTestGen(t)
	ff, cf := full.MemoryFootprint(), coord.MemoryFootprint()
	if cf.Reach != 0 {
		t.Fatalf("coordinator reach bytes = %d, want 0", cf.Reach)
	}
	if ff.Reach == 0 {
		t.Fatalf("full instance reach bytes = 0, want > 0")
	}
	if cf.Rates >= ff.Rates {
		t.Fatalf("coordinator rate bytes %d not below full instance's %d", cf.Rates, ff.Rates)
	}
	if want := int64(4 * full.NumUsers() * full.NumModels()); cf.Rank != want || ff.Rank != want {
		t.Fatalf("rank bytes %d (coordinator) and %d (full), want 4·K·I = %d", cf.Rank, ff.Rank, want)
	}
	if cf.Total() <= 0 || cf.Total() >= ff.Total() {
		t.Fatalf("coordinator total %d, want in (0, %d)", cf.Total(), ff.Total())
	}
}
