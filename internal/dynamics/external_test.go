package dynamics

import (
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

// TestExternalMobilityGuards pins ApplyExternal's input checks, the seam
// every caller that walks the users itself moves them through: malformed
// moves error identically in both modes, with no state mutated (the
// Incremental path delegates to topology.MoveUsers' checks; the Rebuild
// path mirrors them).
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
		pos := e.Instance().Topology().UserPos(0)
		if err := e.ApplyExternal(nil, nil, []int{0}, nil); err == nil {
			t.Errorf("mode %d: length mismatch accepted", int(mode))
		}
		if err := e.ApplyExternal(nil, nil, []int{-1}, []geom.Point{pos}); err == nil {
			t.Errorf("mode %d: out-of-range user accepted", int(mode))
		}
		if err := e.ApplyExternal(nil, nil, []int{0, 0}, []geom.Point{pos, pos}); err == nil {
			t.Errorf("mode %d: duplicate move accepted", int(mode))
		}
		// A well-formed call must still succeed afterwards (no scratch
		// state leaked by the rejected calls).
		if err := e.ApplyExternal(nil, nil, []int{0}, []geom.Point{pos}); err != nil {
			t.Errorf("mode %d: valid call after rejections failed: %v", int(mode), err)
		}
	}
}

// TestProfileResolvesSubset checks the small-delta profiling path replays
// deterministically and degrades to ProfileResolves at stride <= 1.
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
		return e.Placement(0).CountPlacements()
	}
	// Identical checkpoint sequences must land on identical placements
	// whether or not the heap is rebuilt per solve.
	if a, b := run(100, false), run(100, true); a != b {
		t.Errorf("small-delta placements diverge with heap rebuild: %d vs %d", a, b)
	}
	if a, b := run(1, false), run(0, false); a != b {
		t.Errorf("stride<=1 fallback diverges: %d vs %d", a, b)
	}
}
