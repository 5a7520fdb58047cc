package scenario

import (
	"runtime"
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/mobility"
	"trimcaching/internal/rng"
)

// walkInstance builds a paper-style instance plus a mobility population
// over its users.
func walkInstance(t *testing.T, servers, users int, seed uint64) (*Instance, *mobility.Population, *rng.Source) {
	t.Helper()
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(4), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed + 17)
	ins, err := Generate(lib, paperGenConfig(servers, users), src.Split("instance"))
	if err != nil {
		t.Fatal(err)
	}
	pop, err := mobility.NewPopulation(ins.Topology().Area(), ins.Topology().UserPositions(), src.Split("mobility"))
	if err != nil {
		t.Fatal(err)
	}
	return ins, pop, src.Split("walk")
}

// assertInstancesEqual compares every derived quantity of the incremental
// instance against a fresh rebuild, exactly.
func assertInstancesEqual(t *testing.T, got, want *Instance) {
	t.Helper()
	M, K, I := want.NumServers(), want.NumUsers(), want.NumModels()
	for m := 0; m < M; m++ {
		for k := 0; k < K; k++ {
			if got.AvgRateBps(m, k) != want.AvgRateBps(m, k) {
				t.Fatalf("rate(%d,%d) = %v, rebuild %v", m, k, got.AvgRateBps(m, k), want.AvgRateBps(m, k))
			}
		}
	}
	for k := 0; k < K; k++ {
		if got.bestRelay[k] != want.bestRelay[k] {
			t.Fatalf("relay(%d) = %v, rebuild %v", k, got.bestRelay[k], want.bestRelay[k])
		}
		gc, wc := got.Topology().ServersCovering(k), want.Topology().ServersCovering(k)
		if len(gc) != len(wc) {
			t.Fatalf("user %d covered by %d servers, rebuild %d", k, len(gc), len(wc))
		}
		for j := range gc {
			if gc[j] != wc[j] {
				t.Fatalf("user %d coverage differs at %d: %d vs %d", k, j, gc[j], wc[j])
			}
		}
	}
	for w, v := range want.reachSrv {
		if got.reachSrv[w] != v {
			t.Fatalf("reachSrv word %d = %#x, rebuild %#x", w, got.reachSrv[w], v)
		}
	}
	for m := 0; m < M; m++ {
		for i := 0; i < I; i++ {
			if g, w := got.UserMask(m, i), want.UserMask(m, i); !g.Equal(w) {
				t.Fatalf("user mask (%d,%d) = %#x, rebuild %#x", m, i, []uint64(g), []uint64(w))
			}
		}
	}
}

// TestUpdateUsersMatchesRebuild is the tentpole's golden equivalence: after
// each of several checkpoints of §VII-E mobility, the incrementally updated
// instance must be bit-identical — rates, relay rates, coverage, and both
// packed reachability orientations — to a fresh scenario build at the same
// positions.
func TestUpdateUsersMatchesRebuild(t *testing.T) {
	ins, pop, walk := walkInstance(t, 6, 12, 3)
	K := ins.NumUsers()
	all := make([]int, K)
	for k := range all {
		all[k] = k
	}
	for cp := 1; cp <= 4; cp++ {
		// One checkpoint = 120 five-second slots (10 minutes).
		for s := 0; s < 120; s++ {
			if err := pop.Step(5, walk); err != nil {
				t.Fatal(err)
			}
		}
		delta, err := ins.ReviseUsers(nil, nil, all, pop.Positions())
		if err != nil {
			t.Fatal(err)
		}
		if delta.Gen != cp {
			t.Fatalf("generation %d after %d updates", delta.Gen, cp)
		}
		if len(delta.Users) == 0 || !delta.Pairs.Any() {
			t.Fatalf("checkpoint %d: ten minutes of walking changed nothing (users=%d)", cp, len(delta.Users))
		}
		want, err := ins.Rebuild(pop.Positions())
		if err != nil {
			t.Fatal(err)
		}
		assertInstancesEqual(t, ins, want)
	}
}

// TestUpdateUsersParallelMatchesRebuild drives the parallel update path —
// enough dirty users that ReviseUsers splits them into several shares — and
// pins it against the rebuild, checking worker parallelism changes
// nothing (the shares' touched arrays OR together in any order).
func TestUpdateUsersParallelMatchesRebuild(t *testing.T) {
	// ReviseUsers' default worker bound is GOMAXPROCS; raise it so the
	// parallel path actually runs even on single-CPU CI machines (the race
	// detector checks happens-before edges regardless of physical cores).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ins, pop, walk := walkInstance(t, 8, 150, 29)
	all := make([]int, ins.NumUsers())
	for k := range all {
		all[k] = k
	}
	for cp := 1; cp <= 3; cp++ {
		for s := 0; s < 60; s++ {
			if err := pop.Step(5, walk); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ins.ReviseUsers(nil, nil, all, pop.Positions()); err != nil {
			t.Fatal(err)
		}
		want, err := ins.Rebuild(pop.Positions())
		if err != nil {
			t.Fatal(err)
		}
		assertInstancesEqual(t, ins, want)
	}
}

// TestUpdateUsersWorkerCountsMatchRebuild runs twin instances through the
// same walk, one at SetUpdateWorkers(1) and one at SetUpdateWorkers(3), and
// pins them against each other and a fresh rebuild: the shares' touched
// arrays OR together in any order, so the delta pair sets and both mask
// orientations must be identical. An explicit bound is honoured at any
// GOMAXPROCS, so the twin runs three shares even on one CPU.
func TestUpdateUsersWorkerCountsMatchRebuild(t *testing.T) {
	ins, pop, walk := walkInstance(t, 8, 150, 41)
	twin, tpop, twalk := walkInstance(t, 8, 150, 41)
	ins.SetUpdateWorkers(1)
	twin.SetUpdateWorkers(3)
	all := make([]int, ins.NumUsers())
	for k := range all {
		all[k] = k
	}
	for cp := 1; cp <= 3; cp++ {
		for s := 0; s < 60; s++ {
			if err := pop.Step(5, walk); err != nil {
				t.Fatal(err)
			}
			if err := tpop.Step(5, twalk); err != nil {
				t.Fatal(err)
			}
		}
		delta, err := ins.ReviseUsers(nil, nil, all, pop.Positions())
		if err != nil {
			t.Fatal(err)
		}
		tdelta, err := twin.ReviseUsers(nil, nil, all, tpop.Positions())
		if err != nil {
			t.Fatal(err)
		}
		if !delta.Pairs.Any() || !delta.Pairs.Equal(tdelta.Pairs) {
			t.Fatalf("cp %d: delta pairs at 1 and 3 workers differ (or are empty)", cp)
		}
		if len(twin.updWorkers) < 3 {
			t.Fatalf("cp %d: twin ran %d update workers, want 3", cp, len(twin.updWorkers))
		}
		assertInstancesEqual(t, ins, twin)
		want, err := ins.Rebuild(pop.Positions())
		if err != nil {
			t.Fatal(err)
		}
		assertInstancesEqual(t, ins, want)
	}
}

// TestUpdateUsersPartialMove moves a subset of users and checks both the
// equivalence and that the delta stays scoped: users that neither moved
// nor share a load-changed server must not be reported dirty.
func TestUpdateUsersPartialMove(t *testing.T) {
	ins, pop, walk := walkInstance(t, 5, 10, 7)
	for s := 0; s < 50; s++ {
		if err := pop.Step(5, walk); err != nil {
			t.Fatal(err)
		}
	}
	// Move only users 1, 4, 7 to the walked positions.
	moved := []int{1, 4, 7}
	newPos := pop.Positions()
	pos := make([]geom.Point, len(moved))
	final := ins.Topology().UserPositions()
	for j, k := range moved {
		pos[j] = newPos[k]
		final[k] = newPos[k]
	}
	delta, err := ins.ReviseUsers(nil, nil, moved, pos)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ins.Rebuild(final)
	if err != nil {
		t.Fatal(err)
	}
	assertInstancesEqual(t, ins, want)
	dirty := map[int]bool{}
	for _, k := range delta.Users {
		dirty[k] = true
	}
	for _, k := range moved {
		if !dirty[k] {
			t.Fatalf("moved user %d not in delta", k)
		}
	}
	if len(delta.Users) == ins.NumUsers() {
		t.Skip("every user shares a load-changed server; scoping not observable")
	}
}

// TestUpdateUsersNoMove checks the degenerate delta: re-asserting current
// positions must change nothing and report empty pairs.
func TestUpdateUsersNoMove(t *testing.T) {
	ins, _, _ := walkInstance(t, 4, 8, 11)
	posCopy := ins.Topology().UserPositions()
	all := make([]int, ins.NumUsers())
	for k := range all {
		all[k] = k
	}
	delta, err := ins.ReviseUsers(nil, nil, all, posCopy)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Pairs.Any() {
		t.Fatal("no-op move changed reachability pairs")
	}
	want, err := ins.Rebuild(posCopy)
	if err != nil {
		t.Fatal(err)
	}
	assertInstancesEqual(t, ins, want)
}

func TestUpdateUsersValidation(t *testing.T) {
	ins, _, _ := walkInstance(t, 4, 8, 13)
	p := ins.Topology().UserPositions()[0]
	if _, err := ins.ReviseUsers(nil, nil, []int{0, 1}, []geom.Point{p}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := ins.ReviseUsers(nil, nil, []int{99}, []geom.Point{p}); err == nil {
		t.Fatal("out-of-range user must error")
	}
	if _, err := ins.ReviseUsers(nil, nil, []int{0, 0}, []geom.Point{p, p}); err == nil {
		t.Fatal("duplicate user must error")
	}
}

// TestUpdateUsersFadingEquivalence pins the full measurement path: a faded
// reachability realization computed on an incrementally updated instance
// must match the rebuilt instance bit for bit.
func TestUpdateUsersFadingEquivalence(t *testing.T) {
	ins, pop, walk := walkInstance(t, 6, 12, 19)
	all := make([]int, ins.NumUsers())
	for k := range all {
		all[k] = k
	}
	for s := 0; s < 200; s++ {
		if err := pop.Step(5, walk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ins.ReviseUsers(nil, nil, all, pop.Positions()); err != nil {
		t.Fatal(err)
	}
	want, err := ins.Rebuild(pop.Positions())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(42)
	bufGot, bufWant := ins.MakeReachBuffer(), want.MakeReachBuffer()
	for r := 0; r < 5; r++ {
		gains := SampleGains(ins.NumServers(), ins.NumUsers(), src.SplitIndex("real", r))
		got, err := ins.FadedReach(gains, bufGot)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.FadedReach(gains, bufWant)
		if err != nil {
			t.Fatal(err)
		}
		for w, v := range ref.PackedServerMasks() {
			if got.PackedServerMasks()[w] != v {
				t.Fatalf("realization %d: faded reach word %d differs", r, w)
			}
		}
	}
}
