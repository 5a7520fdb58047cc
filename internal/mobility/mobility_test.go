package mobility

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

func testArea(t *testing.T) geom.Area {
	t.Helper()
	a, err := geom.NewArea(1000)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPaperParams(t *testing.T) {
	cases := []struct {
		class Class
		vMin  float64
		vMax  float64
	}{
		{Pedestrian, 0.5, 1.8},
		{Bike, 2, 8},
		{Vehicle, 5.5, 20},
	}
	for _, c := range cases {
		p, err := PaperParams(c.class)
		if err != nil {
			t.Fatal(err)
		}
		if p.SpeedMinMS != c.vMin || p.SpeedMaxMS != c.vMax {
			t.Fatalf("%s: speed range [%v,%v]", c.class, p.SpeedMinMS, p.SpeedMaxMS)
		}
		if p.AccMaxMS2 <= 0 || p.AngVelMaxRadS <= 0 {
			t.Fatalf("%s: non-positive dynamics", c.class)
		}
	}
	if _, err := PaperParams(Class(9)); err == nil {
		t.Fatal("unknown class must error")
	}
	if Class(9).String() == "" || Pedestrian.String() != "pedestrian" {
		t.Fatal("String()")
	}
}

func TestWalkerInitialDraws(t *testing.T) {
	area := testArea(t)
	src := rng.New(1)
	for i := 0; i < 200; i++ {
		w, err := NewWalker(area.SamplePoint(src), Bike, src)
		if err != nil {
			t.Fatal(err)
		}
		if w.speed < 2 || w.speed > 8 {
			t.Fatalf("bike initial speed %v", w.speed)
		}
		if w.class != Bike {
			t.Fatal("class")
		}
	}
}

func TestWalkerStaysInsideArea(t *testing.T) {
	area := testArea(t)
	src := rng.New(2)
	for _, class := range []Class{Pedestrian, Bike, Vehicle} {
		w, err := NewWalker(area.SamplePoint(src), class, src)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 2000; step++ {
			w.step(5, area, src)
			if !area.Contains(w.pos) {
				t.Fatalf("%s left the area at step %d: %v", class, step, w.pos)
			}
			if w.speed < 0 {
				t.Fatalf("negative speed %v", w.speed)
			}
		}
	}
}

func TestWalkerSpeedCapped(t *testing.T) {
	area := testArea(t)
	src := rng.New(3)
	w, err := NewWalker(geom.Point{X: 500, Y: 500}, Vehicle, src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PaperParams(Vehicle)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5000; step++ {
		w.step(5, area, src)
		if w.speed > p.SpeedCapMS+1e-9 {
			t.Fatalf("speed %v exceeds cap %v", w.speed, p.SpeedCapMS)
		}
	}
}

func TestWalkerActuallyMoves(t *testing.T) {
	area := testArea(t)
	src := rng.New(4)
	w, err := NewWalker(geom.Point{X: 500, Y: 500}, Vehicle, src)
	if err != nil {
		t.Fatal(err)
	}
	start := w.pos
	var moved float64
	for step := 0; step < 10; step++ {
		w.step(5, area, src)
	}
	moved = start.Dist(w.pos)
	if moved < 1 {
		t.Fatalf("vehicle moved only %v m in 50 s", moved)
	}
}

// TestStepInvalidDuration rejects durations that are not positive and
// finite, in the walker's duration check and on a population, and leaves
// every position as it was: a NaN or +Inf step used to move users to (NaN,
// NaN).
func TestStepInvalidDuration(t *testing.T) {
	area := testArea(t)
	src := rng.New(5)
	starts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 3}}
	pop, err := NewPopulation(area, starts, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := checkDuration(dt); err == nil {
			t.Errorf("checkDuration(%v) accepted", dt)
		}
		if err := pop.Step(dt, src); err == nil {
			t.Errorf("Population.Step(%v) accepted", dt)
		}
		if got := pop.Positions(); !slices.Equal(got, starts) {
			t.Errorf("Population.Step(%v) moved the walkers to %v", dt, got)
		}
	}
}

// refStep is the walker's step before the fast path, kept as its reference:
// math.Cos and math.Sin, called again on a bounce, rng's Uniform as
// lo + (hi-lo)*Float64, and the math.Mod fold of refFold. It reports
// whether the walker bounced.
func refStep(w *Walker, dtS float64, area geom.Area, src *rng.Source) bool {
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*src.Float64() }
	acc := uniform(-w.params.AccMaxMS2, w.params.AccMaxMS2)
	w.speed += acc * dtS
	if w.speed < 0 {
		w.speed = 0
	}
	if w.speed > w.params.SpeedCapMS {
		w.speed = w.params.SpeedCapMS
	}
	angVel := uniform(-w.params.AngVelMaxRadS, w.params.AngVelMaxRadS)
	w.heading += angVel * dtS

	next := w.pos.Add(w.speed*dtS*math.Cos(w.heading), w.speed*dtS*math.Sin(w.heading))
	x, sx := refFold(next.X, area.Side)
	y, sy := refFold(next.Y, area.Side)
	w.pos = geom.Point{X: x, Y: y}
	if sx < 0 || sy < 0 {
		dx, dy := math.Cos(w.heading)*sx, math.Sin(w.heading)*sy
		w.heading = math.Atan2(dy, dx)
		return true
	}
	return false
}

// refFold is geom's boundary fold without its inside fast path.
func refFold(v, side float64) (float64, float64) {
	period := 2 * side
	v = math.Mod(v, period)
	if v < 0 {
		v += period
	}
	if v > side {
		return period - v, -1
	}
	return v, 1
}

// TestWalkerMatchesReference walks every class side by side with refStep
// and compares positions, speeds and headings bit for bit: in a 50 m area,
// where over a third of the slots bounce (vehicles about half), and in a
// paper-scale 1000 m one.
func TestWalkerMatchesReference(t *testing.T) {
	const slots = 2000
	bits := func(w *Walker) [4]uint64 {
		return [4]uint64{math.Float64bits(w.pos.X), math.Float64bits(w.pos.Y), math.Float64bits(w.speed), math.Float64bits(w.heading)}
	}
	for _, side := range []float64{50, 1000} {
		area, err := geom.NewArea(side)
		if err != nil {
			t.Fatal(err)
		}
		bounces := 0
		for _, class := range []Class{Pedestrian, Bike, Vehicle} {
			seed := uint64(side) + uint64(class)
			init := rng.New(seed)
			w, err := NewWalker(area.SamplePoint(init), class, init)
			if err != nil {
				t.Fatal(err)
			}
			ref := *w
			src, refSrc := rng.New(seed).Split("walk"), rng.New(seed).Split("walk")
			for slot := 0; slot < slots; slot++ {
				w.step(5, area, src)
				if refStep(&ref, 5, area, refSrc) {
					bounces++
				}
				if got, want := bits(w), bits(&ref); got != want {
					t.Fatalf("%v m, %s, slot %d: (x, y, speed, heading) bits %#x, reference %#x", side, class, slot, got, want)
				}
			}
		}
		if side == 50 && bounces < slots {
			t.Fatalf("%v m area: only %d of %d slots bounced, want a third", side, bounces, 3*slots)
		}
	}
}

func TestPopulation(t *testing.T) {
	area := testArea(t)
	src := rng.New(6)
	positions := area.SamplePoints(src, 10)
	pop, err := NewPopulation(area, positions, src)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Len() != 10 {
		t.Fatalf("len %d", pop.Len())
	}
	// Classes cycle: pedestrian, bike, vehicle, pedestrian, ...
	if pop.walkers[0].class != Pedestrian || pop.walkers[1].class != Bike || pop.walkers[2].class != Vehicle {
		t.Fatal("class cycling broken")
	}
	before := pop.Positions()
	if err := pop.Step(5, src); err != nil {
		t.Fatal(err)
	}
	after := pop.Positions()
	var movedAny bool
	for i := range before {
		if !area.Contains(after[i]) {
			t.Fatalf("walker %d left area", i)
		}
		if before[i].Dist(after[i]) > 0.5 {
			movedAny = true
		}
	}
	if !movedAny {
		t.Fatal("nobody moved")
	}
}

func TestPopulationEmpty(t *testing.T) {
	area := testArea(t)
	if _, err := NewPopulation(area, nil, rng.New(7)); err == nil {
		t.Fatal("empty population must error")
	}
}

// Property: after arbitrary step sequences walkers remain inside the area
// with bounded speed.
func TestWalkerInvariantProperty(t *testing.T) {
	area := testArea(t)
	f := func(seed uint64, steps uint8) bool {
		src := rng.New(seed)
		w, err := NewWalker(area.SamplePoint(src), Bike, src)
		if err != nil {
			return false
		}
		p, err := PaperParams(Bike)
		if err != nil {
			return false
		}
		for s := 0; s < int(steps%64)+1; s++ {
			w.step(5, area, src)
			if !area.Contains(w.pos) || w.speed < 0 || w.speed > p.SpeedCapMS+1e-9 {
				return false
			}
			if math.IsNaN(w.pos.X) || math.IsNaN(w.pos.Y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotsPerCheckpoint(t *testing.T) {
	for _, c := range []struct {
		checkpointMin int
		slotS         float64
		want          int
	}{
		{10, 5, 120}, {10, 7, 86}, {10, 1200, 1}, {1, 0.5, 120},
	} {
		got, err := SlotsPerCheckpoint(c.checkpointMin, c.slotS)
		if err != nil || got != c.want {
			t.Errorf("SlotsPerCheckpoint(%d, %v) = %d, %v; want %d", c.checkpointMin, c.slotS, got, err, c.want)
		}
	}
	for _, slotS := range []float64{1201, 1300, 0, -5, math.NaN(), math.Inf(1)} {
		if n, err := SlotsPerCheckpoint(10, slotS); err == nil {
			t.Errorf("SlotsPerCheckpoint(10, %v) = %d, want an error", slotS, n)
		}
	}
	if n, err := SlotsPerCheckpoint(0, 5); err == nil {
		t.Errorf("zero-minute checkpoint gave %d slots, want an error", n)
	}
}

// TestWalkMatchesSlotLoop pins Walk against the slot loop it replaces: a
// population drawn on "mobility", stepped on "walk" for the rounded slots
// per checkpoint, read out after each checkpoint.
func TestWalkMatchesSlotLoop(t *testing.T) {
	area := testArea(t)
	for _, slotS := range []float64{5, 7} {
		src := rng.New(8)
		start := area.SamplePoints(rng.New(9), 12)
		w, err := NewWalk(area, start, src, 10, slotS)
		if err != nil {
			t.Fatal(err)
		}
		pop, err := NewPopulation(area, start, src.Split("mobility"))
		if err != nil {
			t.Fatal(err)
		}
		walk := src.Split("walk")
		slots := int(600/slotS + 0.5)
		if got := w.Positions(); !slices.Equal(got, start) {
			t.Fatalf("slot %v s: initial positions %v, want %v", slotS, got, start)
		}
		for cp := 1; cp <= 4; cp++ {
			for s := 0; s < slots; s++ {
				if err := pop.Step(slotS, walk); err != nil {
					t.Fatal(err)
				}
			}
			got, err := w.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if want := pop.Positions(); !slices.Equal(got, want) {
				t.Fatalf("slot %v s, checkpoint %d: walk at %v, slot loop at %v", slotS, cp, got, want)
			}
			if &got[0] != &w.Positions()[0] {
				t.Fatalf("slot %v s: Checkpoint returned a slice other than the walk's buffer", slotS)
			}
		}
	}
	if _, err := NewWalk(area, area.SamplePoints(rng.New(1), 3), rng.New(1), 10, 1300); err == nil {
		t.Fatal("a 1300 s slot in a 10 min checkpoint must error")
	}
}
