package topology

import (
	"slices"
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

func moveTestTopology(t *testing.T) *Topology {
	t.Helper()
	topo, err := Generate(Config{AreaSideM: 1000, NumServers: 6, NumUsers: 14, CoverageRadiusM: 275}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func assertTopologiesEqual(t *testing.T, got, want *Topology) {
	t.Helper()
	for k := 0; k < want.NumUsers(); k++ {
		if got.users[k] != want.users[k] {
			t.Fatalf("user %d at %v, want %v", k, got.users[k], want.users[k])
		}
		g, w := got.ServersCovering(k), want.ServersCovering(k)
		if len(g) != len(w) {
			t.Fatalf("user %d covered by %d servers, want %d", k, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("user %d coverage[%d] = %d, want %d", k, j, g[j], w[j])
			}
		}
	}
	for m := 0; m < want.NumServers(); m++ {
		g, w := got.UsersOf(m), want.UsersOf(m)
		if len(g) != len(w) {
			t.Fatalf("server %d load %d, want %d", m, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("server %d users[%d] = %d, want %d", m, j, g[j], w[j])
			}
		}
	}
}

// checkMove applies one MoveUsersInPlace batch and pins it to the full
// O(K·M) rebuild. A batch with a length mismatch, an out-of-range user or a
// duplicate must be rejected, leaving positions, coverage and membership
// unchanged and the scratch reporting no movers. Any other batch must
// leave the topology equal to WithUserPositions over the updated position
// vector, report as loadChanged exactly the servers whose user list
// changed, and park each mover's pre-move coverage row in the scratch. It
// returns the call's error.
func checkMove(t *testing.T, topo *Topology, scratch *MoveScratch, moved []int, pos []geom.Point) error {
	t.Helper()
	before, err := topo.WithUserPositions(topo.UserPositions())
	if err != nil {
		t.Fatal(err)
	}
	K := topo.NumUsers()
	isMoved := make([]bool, K)
	malformed := len(moved) != len(pos)
	for _, k := range moved {
		if k < 0 || k >= K || isMoved[k] {
			malformed = true
			continue
		}
		isMoved[k] = true
	}

	changed, err := topo.MoveUsersInPlace(moved, pos, scratch)
	if (err != nil) != malformed {
		t.Fatalf("moved %v with %d positions: err = %v, malformed = %v", moved, len(pos), err, malformed)
	}
	if err != nil {
		assertTopologiesEqual(t, topo, before)
		for k := 0; k < K; k++ {
			if _, ok := scratch.OldCovering(k); ok {
				t.Fatalf("rejected batch %v reports user %d as moved", moved, k)
			}
		}
		return err
	}

	full := before.UserPositions()
	for j, k := range moved {
		full[k] = pos[j]
	}
	want, err := before.WithUserPositions(full)
	if err != nil {
		t.Fatal(err)
	}
	assertTopologiesEqual(t, topo, want)
	var wantChanged []int
	for m := 0; m < want.NumServers(); m++ {
		if !slices.Equal(before.UsersOf(m), want.UsersOf(m)) {
			wantChanged = append(wantChanged, m)
		}
	}
	if !slices.Equal(changed, wantChanged) {
		t.Fatalf("loadChanged = %v, want %v", changed, wantChanged)
	}
	for k := 0; k < K; k++ {
		old, ok := scratch.OldCovering(k)
		if ok != isMoved[k] {
			t.Fatalf("user %d: OldCovering ok = %v, moved = %v", k, ok, isMoved[k])
		}
		if ok && !slices.Equal(old, before.ServersCovering(k)) {
			t.Fatalf("user %d: parked coverage %v, want %v", k, old, before.ServersCovering(k))
		}
	}
	return nil
}

// TestMoveUsersMatchesWithUserPositions drifts random subsets of users
// through repeated in-place moves on one scratch and pins each result
// against the full rebuild (checkMove).
func TestMoveUsersMatchesWithUserPositions(t *testing.T) {
	topo := moveTestTopology(t)
	scratch := NewMoveScratch(topo.NumUsers(), topo.NumServers())
	src := rng.New(9)
	area := topo.Area()
	for round := 0; round < 20; round++ {
		n := 1 + int(src.Uint64()%uint64(topo.NumUsers()))
		perm := src.Perm(topo.NumUsers())
		moved := perm[:n]
		pos := make([]geom.Point, n)
		for j := range pos {
			pos[j] = area.SamplePoints(src, 1)[0]
		}
		if err := checkMove(t, topo, scratch, moved, pos); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestMoveUsersValidation rejects malformed batches whose bad entry comes
// last, after valid moves to new positions: nothing may move, and the
// scratch reports no movers — nor does a fresh one.
func TestMoveUsersValidation(t *testing.T) {
	topo := moveTestTopology(t)
	scratch := NewMoveScratch(topo.NumUsers(), topo.NumServers())
	if _, ok := scratch.OldCovering(0); ok {
		t.Fatal("fresh scratch reports user 0 as moved")
	}
	p, q := geom.Point{X: 10, Y: 10}, geom.Point{X: 990, Y: 990}
	for _, c := range []struct {
		name  string
		moved []int
		pos   []geom.Point
	}{
		{"length mismatch", []int{0, 1}, []geom.Point{p}},
		{"negative index", []int{1, -1}, []geom.Point{p, q}},
		{"out-of-range index", []int{1, topo.NumUsers()}, []geom.Point{p, q}},
		{"duplicate index", []int{2, 2}, []geom.Point{p, q}},
	} {
		if err := checkMove(t, topo, scratch, c.moved, c.pos); err == nil {
			t.Fatalf("%s must error", c.name)
		}
	}
}

// FuzzMoveUsersInPlace replays arbitrary move batches on a small generated
// topology through checkMove: length mismatches, out-of-range and
// duplicate users, and points inside and outside the area. Each op is a
// header byte (low 3 bits: batch size; top 2 bits: 1 adds a spare
// position, 2 a spare user) followed by 3 bytes per entry: the user as a
// signed byte modulo K+2, then x and y spread over [-250, 1250] m of the
// 1000 m area. Run it with
// go test -run '^$' -fuzz FuzzMoveUsersInPlace -fuzztime 10s ./internal/topology.
func FuzzMoveUsersInPlace(f *testing.F) {
	f.Add(uint64(5), []byte{2, 0, 10, 200, 3, 250, 40})
	f.Add(uint64(6), []byte{2, 4, 10, 200, 4, 250, 40})
	f.Add(uint64(7), []byte{2, 1, 0, 0, 0xff, 255, 255})
	f.Add(uint64(8), []byte{0x41, 1, 90, 90, 0x81, 2, 128, 128, 3, 5, 60, 60, 6, 60, 6, 7, 200, 20})
	f.Add(uint64(9), []byte{0, 1, 15, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		topo, err := Generate(Config{
			AreaSideM:       1000,
			NumServers:      1 + int(seed%7),
			NumUsers:        1 + int(seed>>3%16),
			CoverageRadiusM: 275,
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		K := topo.NumUsers()
		scratch := NewMoveScratch(K, topo.NumServers())
		coord := func(b byte) float64 { return -250 + 1500*float64(b)/255 }
		// At most eight calls per input: longer inputs add no new shape of
		// batch, and they make the fuzzer's minimization crawl.
		for call := 0; call < 8 && len(ops) > 0; call++ {
			h := ops[0]
			ops = ops[1:]
			var moved []int
			var pos []geom.Point
			for j := 0; j < int(h&7) && len(ops) >= 3; j++ {
				moved = append(moved, int(int8(ops[0]))%(K+2))
				pos = append(pos, geom.Point{X: coord(ops[1]), Y: coord(ops[2])})
				ops = ops[3:]
			}
			switch h >> 6 {
			case 1:
				pos = append(pos, geom.Point{})
			case 2:
				moved = append(moved, 0)
			}
			checkMove(t, topo, scratch, moved, pos)
		}
	})
}
