package trimcaching

import (
	"math"
	"testing"
)

func TestWalkFlow(t *testing.T) {
	lib, err := NewSpecialLibrary(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario(lib, DefaultScenarioConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := sc.Place("gen")
	if err != nil {
		t.Fatal(err)
	}
	walk, err := sc.StartWalk(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := walk.Advance(600); err != nil {
		t.Fatal(err)
	}
	next, err := walk.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if next.Servers() != sc.Servers() || next.Users() != sc.Users() || next.Models() != sc.Models() {
		t.Fatal("walk snapshot changed dimensions")
	}
	// The original placement must still evaluate on the moved scenario.
	hr, err := next.HitRatio(p)
	if err != nil {
		t.Fatal(err)
	}
	if hr < 0 || hr > 1 {
		t.Fatalf("hit ratio %v", hr)
	}
}

func TestWalkMovesUsers(t *testing.T) {
	lib, err := NewSpecialLibrary(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario(lib, DefaultScenarioConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := sc.StartWalk(5)
	if err != nil {
		t.Fatal(err)
	}
	before := sc.instance.Topology().UserPositions()
	if err := walk.Advance(300); err != nil {
		t.Fatal(err)
	}
	next, err := walk.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	after := next.instance.Topology().UserPositions()
	moved := 0
	for i := range before {
		if before[i].Dist(after[i]) > 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no users moved after 5 minutes")
	}
}

func TestWalkAdvancePartialSlot(t *testing.T) {
	lib, err := NewSpecialLibrary(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario(lib, DefaultScenarioConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := sc.StartWalk(7)
	if err != nil {
		t.Fatal(err)
	}
	// 7 seconds: one full slot plus a 2-second partial slot.
	if err := walk.Advance(7); err != nil {
		t.Fatal(err)
	}
	if _, err := walk.Scenario(); err != nil {
		t.Fatal(err)
	}
}

// TestWalkAdvanceRejectsBadDurations rejects NaN, negative and infinite
// durations, and one so long a 5 s slot rounds away. NaN comes first: +Inf
// used to loop forever, and so did 1e17 s, which comes last.
func TestWalkAdvanceRejectsBadDurations(t *testing.T) {
	lib, err := NewSpecialLibrary(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario(lib, DefaultScenarioConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := sc.StartWalk(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{math.NaN(), -1, math.Inf(-1), math.Inf(1), 1e17} {
		if err := walk.Advance(s); err == nil {
			t.Fatalf("Advance(%v) accepted", s)
		}
	}
	if err := walk.Advance(0); err != nil {
		t.Fatalf("Advance(0): %v", err)
	}
}

func TestWalkDeterministic(t *testing.T) {
	lib, err := NewSpecialLibrary(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	positionsAfter := func() []float64 {
		sc, err := BuildScenario(lib, DefaultScenarioConfig(), 8)
		if err != nil {
			t.Fatal(err)
		}
		walk, err := sc.StartWalk(9)
		if err != nil {
			t.Fatal(err)
		}
		if err := walk.Advance(120); err != nil {
			t.Fatal(err)
		}
		next, err := walk.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, p := range next.instance.Topology().UserPositions() {
			out = append(out, p.X, p.Y)
		}
		return out
	}
	a := positionsAfter()
	b := positionsAfter()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seeds, different walks")
		}
	}
}
