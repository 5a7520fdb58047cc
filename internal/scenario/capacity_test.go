package scenario

import (
	"fmt"
	"math"
	"testing"

	"trimcaching/internal/bitset"
	"trimcaching/internal/geom"
	"trimcaching/internal/modellib"
	"trimcaching/internal/rng"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

const capMB = 1 << 20

// capacityFixture builds an instance over a library with heterogeneous
// model sizes (one shared 100 MB block plus specific blocks of 50..300 MB),
// so a storage budget can block a strict subset of the models — the regime
// SetServerCapacity's per-model verdicts exist for.
func capacityFixture(t *testing.T) (*Instance, geom.Area, []geom.Point) {
	t.Helper()
	src := rng.New(77)
	blocks := []modellib.Block{{ID: 0, SizeBytes: 100 * capMB, Label: "shared"}}
	var models []modellib.Model
	for i := 0; i < 6; i++ {
		blocks = append(blocks, modellib.Block{
			ID:        i + 1,
			SizeBytes: int64(i+1) * 50 * capMB,
			Label:     fmt.Sprintf("spec%d", i),
		})
		models = append(models, modellib.Model{
			ID:     i,
			Name:   fmt.Sprintf("mix%d", i),
			Family: "mix",
			Blocks: []int{0, i + 1},
		})
	}
	lib, err := modellib.New(blocks, models)
	if err != nil {
		t.Fatal(err)
	}
	area, err := geom.NewArea(800)
	if err != nil {
		t.Fatal(err)
	}
	const K = 18
	servers := area.SamplePoints(src.Split("servers"), 5)
	users := area.SamplePoints(src.Split("users"), K)
	wcfg := wireless.DefaultConfig()
	wcfg.BackhaulBps = 1e9
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	work, err := workload.Generate(K, lib.NumModels(), wl, src.Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.New(area, servers, users, wcfg.CoverageRadiusM)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := New(topo, lib, work, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	return ins, area, users
}

// capBitsFor returns a budget in bits that admits exactly the models of
// size at most maxMB megabytes.
func capBitsFor(maxMB int64) int64 { return 8 * maxMB * capMB }

// TestSetServerCapacityMatchesColdBuild shrinks servers through both
// regimes — a partial block (some models still fit) and a full block
// (nothing fits) — pinning the warm instance bit-identical to a cold build
// at the same capacities after every step, then restores capacity and pins
// the bit-exact round trip back to the pristine build.
func TestSetServerCapacityMatchesColdBuild(t *testing.T) {
	ins, _, users := capacityFixture(t)
	pristine, err := ins.Rebuild(users)
	if err != nil {
		t.Fatal(err)
	}
	I := ins.NumModels()

	steps := []struct {
		label string
		m     int
		bits  int64
	}{
		{"partial", 1, capBitsFor(260)}, // models 150..250 MB fit, 300..400 MB blocked
		{"full", 1, capBitsFor(120)},    // below the smallest model: nothing fits
		{"second", 3, capBitsFor(360)},  // a second server degrades independently
		{"regrow", 1, capBitsFor(310)},  // partial restore on the way back up
	}
	for _, st := range steps {
		delta, err := ins.SetServerCapacity(st.m, st.bits)
		if err != nil {
			t.Fatalf("%s: %v", st.label, err)
		}
		if delta.Gen != ins.Generation() {
			t.Fatalf("%s: delta gen %d, instance %d", st.label, delta.Gen, ins.Generation())
		}
		// The whole column of the resized server must be marked: the byte
		// budget is solver state even when no reachability bit toggled.
		for i := 0; i < I; i++ {
			if !delta.Pairs.Has(st.m*I + i) {
				t.Fatalf("%s: pair (%d,%d) not marked", st.label, st.m, i)
			}
		}
		cold, err := ins.Rebuild(users)
		if err != nil {
			t.Fatal(err)
		}
		sameInstanceState(t, st.label, ins, cold)
	}

	// Blocked pairs are unreachable and carry +Inf latency; unblocked pairs
	// on the degraded server keep finite service where the mask says so.
	if !ins.capBlocked(1, 5) {
		t.Error("server 1 at 310 MB should block the 400 MB model")
	}
	if ins.capBlocked(1, 2) {
		t.Error("server 1 at 310 MB should admit the 250 MB model")
	}
	for k := 0; k < ins.NumUsers(); k++ {
		if ins.ServerMask(k, 5).Has(1) {
			t.Fatalf("user %d still reaches blocked pair (1,5)", k)
		}
		if !math.IsInf(ins.latencyS(1, k, 5), 1) {
			t.Fatalf("user %d has finite latency on blocked pair (1,5)", k)
		}
	}

	// Full restore is a bit-exact round trip, and the capacity state
	// disappears with it (the unconstrained fast path returns).
	for _, m := range []int{1, 3} {
		if _, err := ins.SetServerCapacity(m, -1); err != nil {
			t.Fatal(err)
		}
	}
	if ins.capBits != nil || ins.capBlock != nil {
		t.Errorf("capacity state survives the full restore: budgets %v", ins.capBits)
	}
	sameInstanceState(t, "restored", ins, pristine)
}

// TestSetServerCapacityNoop pins the no-work paths: an equal-value call
// and a restore of a never-constrained server both return a delta at the
// current generation with no pairs, so an evaluator applies them as no-ops.
func TestSetServerCapacityNoop(t *testing.T) {
	ins, _, _ := capacityFixture(t)
	if d, err := ins.SetServerCapacity(2, -1); err != nil || d.Gen != ins.Generation() || d.Pairs.Any() {
		t.Fatalf("restore of unconstrained server: delta %+v, err %v", d, err)
	}
	gen := ins.Generation()
	if _, err := ins.SetServerCapacity(2, capBitsFor(260)); err != nil {
		t.Fatal(err)
	}
	if ins.Generation() != gen+1 {
		t.Fatalf("shrink advanced gen to %d, want %d", ins.Generation(), gen+1)
	}
	d, err := ins.SetServerCapacity(2, capBitsFor(260))
	if err != nil {
		t.Fatal(err)
	}
	if d.Gen != ins.Generation() || len(d.Users) != 0 || d.Pairs.Any() {
		t.Fatalf("equal-value call not a no-op: gen %d/%d, %d users, pairs %v",
			d.Gen, ins.Generation(), len(d.Users), d.Pairs.Any())
	}
	if _, err := ins.SetServerCapacity(5, 0); err == nil {
		t.Error("server out of range accepted")
	}
}

// TestSetServerCapacityDownInterplay pins the down-server short circuit: a
// capacity change on a down server moves no reachability bits (they are
// already dark), and recovery restores exactly the bits the reduced budget
// admits.
func TestSetServerCapacityDownInterplay(t *testing.T) {
	ins, _, users := capacityFixture(t)
	if _, err := ins.SetServersDown([]int{2}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.SetServerCapacity(2, capBitsFor(260)); err != nil {
		t.Fatal(err)
	}
	cold, err := ins.Rebuild(users)
	if err != nil {
		t.Fatal(err)
	}
	sameInstanceState(t, "down+shrink", ins, cold)
	if _, err := ins.SetServersDown([]int{2}, false); err != nil {
		t.Fatal(err)
	}
	cold, err = ins.Rebuild(users)
	if err != nil {
		t.Fatal(err)
	}
	sameInstanceState(t, "recovered-degraded", ins, cold)
	for k := 0; k < ins.NumUsers(); k++ {
		if ins.ServerMask(k, 5).Has(2) {
			t.Fatalf("user %d reaches (2,5) after recovery under a 260 MB budget", k)
		}
	}
}

// TestSetServerCapacityFusedKernel pins the fused measurement kernel's
// capacity-masked placement columns against the two-pass path (FadedReach
// masks the rows instead) on a degraded instance, and against the fused
// kernel on a cold build at the same capacity.
func TestSetServerCapacityFusedKernel(t *testing.T) {
	ins, _, users := capacityFixture(t)
	if _, err := ins.SetServerCapacity(0, capBitsFor(120)); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.SetServerCapacity(1, capBitsFor(260)); err != nil {
		t.Fatal(err)
	}
	cold, err := ins.Rebuild(users)
	if err != nil {
		t.Fatal(err)
	}

	sw := ins.ServerMaskWords()
	cols := make(fakeColumns, ins.NumModels()*sw)
	full := bitset.Set(make([]uint64, sw))
	full.SetAll(ins.NumServers())
	for _, i := range []int{0, 2, 4, 5} {
		copy(cols[i*sw:(i+1)*sw], full)
	}
	gains := SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(9))
	got := make([]float64, 1)
	want := make([]float64, 1)
	if err := ins.FadedHitMass(gains, []ServerColumns{cols}, got, nil); err != nil {
		t.Fatal(err)
	}
	if err := cold.FadedHitMass(gains, []ServerColumns{cols}, want, nil); err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Errorf("fused hit mass on degraded instance %v, cold build %v", got[0], want[0])
	}

	// Two-pass reference: FadedReach's rows already exclude blocked pairs,
	// so the AND-scored sum must agree bit for bit with the fused kernel's
	// masked columns.
	reach, err := ins.FadedReach(gains, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dense float64
	for k := 0; k < ins.NumUsers(); k++ {
		for i := 0; i < ins.NumModels(); i++ {
			if bitset.Intersects(reach.ServerMask(k, i), bitset.Set(cols[i*sw:(i+1)*sw])) {
				dense += ins.Prob(k, i)
			}
		}
	}
	if got[0] != dense {
		t.Errorf("fused hit mass %v, two-pass reference %v", got[0], dense)
	}
	if got[0] <= 0 {
		t.Error("degenerate fixture: zero hit mass")
	}
}

// TestOutageCapacityInterleaving is the randomized robustness property:
// SetServersDown and SetServerCapacity interleaved with user movement, in
// randomized orders, pinning the instance bit-identical to a cold build of
// the same state after every step — and a full restore at the end is a
// bit-exact round trip back to a pristine build.
func TestOutageCapacityInterleaving(t *testing.T) {
	ins, area, users := capacityFixture(t)
	pristine, err := ins.Rebuild(users)
	if err != nil {
		t.Fatal(err)
	}
	M := ins.NumServers()
	pos := append([]geom.Point(nil), users...)
	src := rng.New(123)
	budgets := []int64{-1, capBitsFor(120), capBitsFor(260), capBitsFor(420)}

	steps := 40
	if testing.Short() {
		steps = 12
	}
	for step := 0; step < steps; step++ {
		switch src.Intn(3) {
		case 0: // toggle an outage
			m := src.Intn(M)
			if _, err := ins.SetServersDown([]int{m}, !ins.serverDown(m)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 1: // resize a budget
			m := src.Intn(M)
			if _, err := ins.SetServerCapacity(m, budgets[src.Intn(len(budgets))]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default: // walk a third of the users
			var moved []int
			var movedPos []geom.Point
			for k := src.Intn(3); k < len(pos); k += 3 {
				pos[k] = area.SamplePoint(src)
				moved = append(moved, k)
				movedPos = append(movedPos, pos[k])
			}
			if _, err := ins.ReviseUsers(nil, nil, moved, movedPos); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		cold, err := ins.Rebuild(pos)
		if err != nil {
			t.Fatal(err)
		}
		sameInstanceState(t, fmt.Sprintf("step %d", step), ins, cold)
	}

	// Full restore: every server back up and unconstrained, users back at
	// their original positions — bit-identical to the pristine build.
	if downList := ins.DownServers(); len(downList) > 0 {
		if _, err := ins.SetServersDown(downList, false); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < M; m++ {
		if _, err := ins.SetServerCapacity(m, -1); err != nil {
			t.Fatal(err)
		}
	}
	all := make([]int, len(pos))
	for k := range all {
		all[k] = k
	}
	if _, err := ins.ReviseUsers(nil, nil, all, users); err != nil {
		t.Fatal(err)
	}
	if ins.capBits != nil || ins.capBlock != nil {
		t.Errorf("capacity state survives the restore: budgets %v", ins.capBits)
	}
	sameInstanceState(t, "round trip", ins, pristine)
}
