package scenario

import (
	"testing"

	"trimcaching/internal/bitset"
	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/rng"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// reviseFixture builds an instance over an aliased workload (so rows can
// be swapped) plus the parent workload supplying real rows.
func reviseFixture(t *testing.T) (*Instance, *workload.Workload, *workload.Workload, geom.Area, []geom.Point) {
	t.Helper()
	return sizedReviseFixture(t, 5, 18)
}

// sizedReviseFixture is reviseFixture with M servers and K users.
func sizedReviseFixture(t *testing.T, M, K int) (*Instance, *workload.Workload, *workload.Workload, geom.Area, []geom.Point) {
	t.Helper()
	src := rng.New(21)
	lib, err := libgen.GenerateLoRA(libgen.DefaultLoRAConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	area, err := geom.NewArea(800)
	if err != nil {
		t.Fatal(err)
	}
	servers := area.SamplePoints(src.Split("servers"), M)
	users := area.SamplePoints(src.Split("users"), K)
	wcfg := wireless.DefaultConfig()
	wcfg.BackhaulBps = 1e9
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	parent, err := workload.Generate(K, lib.NumModels(), wl, src.Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := workload.NewAliased(K, lib.NumModels())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < K; k++ {
		if err := aliased.SetUserRows(k, parent.ProbRow(k), parent.DeadlineRow(k), parent.InferRow(k)); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.New(area, servers, users, wcfg.CoverageRadiusM)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := New(topo, lib, aliased, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	return ins, aliased, parent, area, users
}

func sameInstanceState(t *testing.T, label string, got, want *Instance) {
	t.Helper()
	M, K, I := want.NumServers(), want.NumUsers(), want.NumModels()
	if got.TotalMass() != want.TotalMass() {
		t.Errorf("%s: total mass %v, want %v", label, got.TotalMass(), want.TotalMass())
	}
	for k := 0; k < K; k++ {
		for m := 0; m < M; m++ {
			if got.AvgRateBps(m, k) != want.AvgRateBps(m, k) {
				t.Fatalf("%s: rate(%d,%d) %v, want %v", label, m, k, got.AvgRateBps(m, k), want.AvgRateBps(m, k))
			}
		}
		for i := 0; i < I; i++ {
			if !got.ServerMask(k, i).Equal(want.ServerMask(k, i)) {
				t.Fatalf("%s: server mask (%d,%d) differs", label, k, i)
			}
		}
	}
	for m := 0; m < M; m++ {
		for i := 0; i < I; i++ {
			// Every user's bits are exact once derived, zero-mass users
			// included.
			if !got.UserMask(m, i).Equal(want.UserMask(m, i)) {
				t.Fatalf("%s: user mask (%d,%d) differs", label, m, i)
			}
			if got.hitMass(m, i) != want.hitMass(m, i) {
				t.Fatalf("%s: hit mass (%d,%d) %v, want %v", label, m, i, got.hitMass(m, i), want.hitMass(m, i))
			}
		}
	}
}

// TestReviseUsersMatchesFreshBuild swaps rows (zeroing one user, rebinding
// another to a different user's demand) while moving users, and pins the
// revised instance bit-identical to a fresh build over the same workload
// state and positions — including after a further plain delta update,
// which exercises the rebuilt threshold rank rows.
func TestReviseUsersMatchesFreshBuild(t *testing.T) {
	ins, aliased, parent, area, users := reviseFixture(t)
	zero := make([]float64, ins.NumModels())
	walk := rng.New(5)

	// Prime the flip index so revisions exercise the rank-row rebuild.
	if _, err := ins.ReviseUsers(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	pos := append([]geom.Point(nil), users...)
	for round := 0; round < 4; round++ {
		// Walk a third of the users.
		var moved []int
		var movedPos []geom.Point
		for k := round % 3; k < len(pos); k += 3 {
			pos[k] = area.SamplePoint(walk)
			moved = append(moved, k)
			movedPos = append(movedPos, pos[k])
		}
		// Revise two users: one parked-and-zeroed, one rebound to another
		// user's rows (a shard handoff's two halves).
		parkUser := (2 + round) % len(pos)
		bindUser := (7 + round) % len(pos)
		if parkUser == bindUser {
			bindUser = (bindUser + 1) % len(pos)
		}
		if err := aliased.SetUserRows(parkUser, zero, zero, zero); err != nil {
			t.Fatal(err)
		}
		donor := (bindUser + 3) % len(pos)
		if err := aliased.SetUserRows(bindUser, parent.ProbRow(donor), parent.DeadlineRow(donor), parent.InferRow(donor)); err != nil {
			t.Fatal(err)
		}
		// And one mass-only revision: an ownership flip swaps just the
		// probability row (thresholds stay bound).
		flipUser := (11 + round) % len(pos)
		if flipUser == parkUser || flipUser == bindUser {
			flipUser = (flipUser + 2) % len(pos)
		}
		flipProb := zero
		if round%2 == 1 {
			flipProb = parent.ProbRow(flipUser)
		}
		if err := aliased.SetUserProbRow(flipUser, flipProb); err != nil {
			t.Fatal(err)
		}
		revGen := ins.RevisionGeneration()
		if _, err := ins.ReviseUsers([]int{parkUser, bindUser}, []int{flipUser}, moved, movedPos); err != nil {
			t.Fatal(err)
		}
		if got := ins.RevisionGeneration(); got != revGen+1 {
			t.Errorf("round %d: revision generation %d, want %d", round, got, revGen+1)
		}
		fresh, err := ins.Rebuild(pos)
		if err != nil {
			t.Fatal(err)
		}
		sameInstanceState(t, "revised", ins, fresh)
	}
}

// fakeColumns is a minimal ServerColumns view for kernel tests.
type fakeColumns []uint64

func (f fakeColumns) PackedServerColumns() []uint64 { return f }

// TestReviseUsersFusedKernel pins the rank-indexed fused measurement on a
// revised instance against the dense kernel on a fresh build: the revised
// rank rows must describe the new thresholds exactly.
func TestReviseUsersFusedKernel(t *testing.T) {
	ins, aliased, parent, _, users := reviseFixture(t)
	if _, err := ins.ReviseUsers(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, ins.NumModels())
	if err := aliased.SetUserRows(3, zero, zero, zero); err != nil {
		t.Fatal(err)
	}
	if err := aliased.SetUserRows(5, parent.ProbRow(9), parent.DeadlineRow(9), parent.InferRow(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.ReviseUsers([]int{3, 5}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := ins.Rebuild(users)
	if err != nil {
		t.Fatal(err)
	}

	// A placement view caching a few models everywhere.
	sw := ins.ServerMaskWords()
	cols := make(fakeColumns, ins.NumModels()*sw)
	full := bitset.Set(make([]uint64, sw))
	full.SetAll(ins.NumServers())
	for _, i := range []int{0, 2, 7, 11} {
		copy(cols[i*sw:(i+1)*sw], full)
	}
	gains := SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(33))
	got := make([]float64, 1)
	want := make([]float64, 1)
	if err := ins.FadedHitMass(gains, []ServerColumns{cols}, got, nil); err != nil {
		t.Fatal(err)
	}
	if err := fresh.FadedHitMass(gains, []ServerColumns{cols}, want, nil); err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Errorf("fused hit mass on revised instance %v, fresh build %v", got[0], want[0])
	}
	if got[0] <= 0 {
		t.Error("degenerate fixture: zero hit mass")
	}
}
