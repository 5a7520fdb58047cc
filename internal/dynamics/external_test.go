package dynamics

import (
	"slices"
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
)

// TestExternalMobilityGuards pins ApplyExternal's input checks, the seam
// every caller that walks the users itself moves them through: in both
// modes a malformed batch errors and moves nobody, even when its bad entry
// comes last, after valid moves to new positions (the Incremental path
// relies on topology.MoveUsersInPlace checking the whole batch before it
// mutates; the Rebuild path mirrors those checks).
func TestExternalMobilityGuards(t *testing.T) {
	for _, mode := range []Mode{Incremental, Rebuild} {
		cfg, err := NewSmokeScaleConfig(mode)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cfg, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		topo := e.Instance().Topology()
		before := topo.UserPositions()
		side := topo.Area().Side
		p, q := geom.Point{X: side / 3, Y: side / 3}, geom.Point{X: 2 * side / 3, Y: side / 4}
		for _, c := range []struct {
			name  string
			moved []int
			pos   []geom.Point
		}{
			{"length mismatch", []int{1, 2}, []geom.Point{p}},
			{"negative user", []int{2, -1}, []geom.Point{p, q}},
			{"out-of-range user", []int{2, len(before)}, []geom.Point{p, q}},
			{"duplicate move", []int{1, 1}, []geom.Point{p, q}},
		} {
			if err := e.ApplyExternal(nil, nil, c.moved, c.pos); err == nil {
				t.Errorf("mode %d: %s accepted", int(mode), c.name)
			}
			if got := e.Instance().Topology().UserPositions(); !slices.Equal(got, before) {
				t.Fatalf("mode %d: rejected %s moved users", int(mode), c.name)
			}
		}
		// A well-formed call must still succeed afterwards and move exactly
		// its user (no state leaked by the rejected calls).
		if err := e.ApplyExternal(nil, nil, []int{1}, []geom.Point{p}); err != nil {
			t.Fatalf("mode %d: valid call after rejections failed: %v", int(mode), err)
		}
		want := append([]geom.Point(nil), before...)
		want[1] = p
		if got := e.Instance().Topology().UserPositions(); !slices.Equal(got, want) {
			t.Fatalf("mode %d: valid call after rejections moved the wrong users", int(mode))
		}
	}
}

// TestProfileResolvesSubset checks the small-delta profiling path replays
// deterministically and clamps stride 0 to stride 1.
func TestProfileResolvesSubset(t *testing.T) {
	run := func(stride int, rebuild bool) int {
		cfg, err := NewSmokeScaleConfig(Incremental)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cfg, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.ProfileResolvesSubset(2, stride, rebuild)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Fatalf("non-positive resolve time %v", d)
		}
		return placedPairs(e.Placement(0))
	}
	// Identical checkpoint sequences must land on identical placements
	// whether or not the heap is rebuilt per solve.
	if a, b := run(100, false), run(100, true); a != b {
		t.Errorf("small-delta placements diverge with heap rebuild: %d vs %d", a, b)
	}
	if a, b := run(1, false), run(0, false); a != b {
		t.Errorf("stride 0 diverges from stride 1: %d vs %d", a, b)
	}
}

// placedPairs returns the number of (server, model) pairs p caches.
func placedPairs(p *placement.Placement) int {
	n := 0
	for m := 0; m < p.NumServers(); m++ {
		n += p.Models(m).Count()
	}
	return n
}
