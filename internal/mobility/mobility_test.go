package mobility

import (
	"fmt"
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

// classParams returns the parameters NewPopulation gives walker i: the
// classes cycle pedestrian, bike, vehicle.
func classParams(t testing.TB, i int) Params {
	t.Helper()
	p, err := PaperParams([]Class{Pedestrian, Bike, Vehicle}[i%3])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWalkerInitialDraws(t *testing.T) {
	area := testArea(t)
	src := rng.New(1)
	pop, err := NewPopulation(area, area.SamplePoints(src, 600), src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop.Len() {
		p := classParams(t, i)
		if got := pop.params[pop.class[i]]; got != p {
			t.Fatalf("walker %d: params %+v, want %+v", i, got, p)
		}
		if s := pop.speed[i]; s < p.SpeedMinMS || s > p.SpeedMaxMS {
			t.Fatalf("walker %d: initial speed %v outside [%v, %v]", i, s, p.SpeedMinMS, p.SpeedMaxMS)
		}
		if h := pop.heading[i]; h < 0 || h > math.Pi {
			t.Fatalf("walker %d: initial heading %v outside [0, π]", i, h)
		}
	}
}

func TestWalkerStaysInsideArea(t *testing.T) {
	area := testArea(t)
	src := rng.New(2)
	pop, err := NewPopulation(area, area.SamplePoints(src, 3), src)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		if err := pop.Step(5, src); err != nil {
			t.Fatal(err)
		}
		for i := range pop.Len() {
			if !area.Contains(pop.pos[i]) {
				t.Fatalf("walker %d left the area at step %d: %v", i, step, pop.pos[i])
			}
			if pop.speed[i] < 0 || math.Signbit(pop.speed[i]) {
				t.Fatalf("walker %d: negative speed %v", i, pop.speed[i])
			}
		}
	}
}

func TestWalkerSpeedCapped(t *testing.T) {
	area := testArea(t)
	src := rng.New(3)
	center := geom.Point{X: 500, Y: 500}
	pop, err := NewPopulation(area, []geom.Point{center, center, center}, src)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5000; step++ {
		if err := pop.Step(5, src); err != nil {
			t.Fatal(err)
		}
		for i := range pop.Len() {
			if p := classParams(t, i); pop.speed[i] > p.SpeedCapMS {
				t.Fatalf("walker %d: speed %v exceeds cap %v", i, pop.speed[i], p.SpeedCapMS)
			}
		}
	}
}

func TestWalkerActuallyMoves(t *testing.T) {
	area := testArea(t)
	src := rng.New(4)
	center := geom.Point{X: 500, Y: 500}
	pop, err := NewPopulation(area, []geom.Point{center, center, center}, src)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		if err := pop.Step(5, src); err != nil {
			t.Fatal(err)
		}
	}
	if moved := center.Dist(pop.pos[2]); moved < 1 {
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

// refWalker is one walker of the reference walk.
type refWalker struct {
	params  Params
	pos     geom.Point
	speed   float64 // m/s
	heading float64 // radians
}

// refUniform is rng's Uniform as lo + (hi-lo)*Float64.
func refUniform(src *rng.Source, lo, hi float64) float64 {
	return lo + (hi-lo)*src.Float64()
}

// newRefWalkers is NewPopulation as a per-walker loop: classes cycle
// pedestrian, bike, vehicle, and each walker draws its speed, then its
// heading.
func newRefWalkers(t testing.TB, positions []geom.Point, src *rng.Source) []refWalker {
	ws := make([]refWalker, len(positions))
	for i, pos := range positions {
		p := classParams(t, i)
		ws[i] = refWalker{params: p, pos: pos}
		ws[i].speed = refUniform(src, p.SpeedMinMS, p.SpeedMaxMS)
		ws[i].heading = refUniform(src, 0, math.Pi)
	}
	return ws
}

// refStep is one walker's step before the fast path, kept as its
// reference: math.Cos and math.Sin, called again on a bounce, refUniform,
// the speed clamp as two ifs, and the math.Mod fold of refFold. It reports
// whether the walker bounced.
func refStep(w *refWalker, dtS float64, area geom.Area, src *rng.Source) bool {
	acc := refUniform(src, -w.params.AccMaxMS2, w.params.AccMaxMS2)
	w.speed += acc * dtS
	if w.speed < 0 {
		w.speed = 0
	}
	if w.speed > w.params.SpeedCapMS {
		w.speed = w.params.SpeedCapMS
	}
	angVel := refUniform(src, -w.params.AngVelMaxRadS, w.params.AngVelMaxRadS)
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

// refFold is geom's boundary fold, applied to every coordinate, inside or
// not.
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

// walkerMismatch returns "" when walker i of pop holds ref's position,
// speed and heading bit for bit, and a description otherwise.
func walkerMismatch(pop *Population, i int, ref *refWalker) string {
	got := [4]uint64{math.Float64bits(pop.pos[i].X), math.Float64bits(pop.pos[i].Y), math.Float64bits(pop.speed[i]), math.Float64bits(pop.heading[i])}
	want := [4]uint64{math.Float64bits(ref.pos.X), math.Float64bits(ref.pos.Y), math.Float64bits(ref.speed), math.Float64bits(ref.heading)}
	if got == want {
		return ""
	}
	return fmt.Sprintf("walker %d: (x, y, speed, heading) bits %#x, reference %#x", i, got, want)
}

// walkAgainstReference draws a population of n walkers in area from seed's
// "mobility" stream, steps it slots times by dtS on seed's "walk" stream
// and refStep on a twin, walker by walker in order, and fails on the first
// walker whose bits differ, or if the two walk streams end at different
// places. It returns the reference's bounce count.
func walkAgainstReference(t testing.TB, seed uint64, n int, area geom.Area, slots int, dtS float64) int {
	t.Helper()
	positions := area.SamplePoints(rng.New(seed), n)
	pop, err := NewPopulation(area, positions, rng.New(seed).Split("mobility"))
	if err != nil {
		t.Fatal(err)
	}
	refs := newRefWalkers(t, positions, rng.New(seed).Split("mobility"))
	for i := range refs {
		if msg := walkerMismatch(pop, i, &refs[i]); msg != "" {
			t.Fatalf("%d walkers, %v m, before the first slot: %s", n, area.Side, msg)
		}
	}
	src, refSrc := rng.New(seed).Split("walk"), rng.New(seed).Split("walk")
	bounces := 0
	for slot := 0; slot < slots; slot++ {
		if err := pop.Step(dtS, src); err != nil {
			t.Fatal(err)
		}
		for i := range refs {
			if refStep(&refs[i], dtS, area, refSrc) {
				bounces++
			}
			if msg := walkerMismatch(pop, i, &refs[i]); msg != "" {
				t.Fatalf("%d walkers, %v m, %v s, slot %d: %s", n, area.Side, dtS, slot, msg)
			}
		}
	}
	if got, want := src.Uint64(), refSrc.Uint64(); got != want {
		t.Fatalf("%d walkers, %v m: the walk stream's next word is %#x, the reference's %#x", n, area.Side, got, want)
	}
	return bounces
}

// TestPopulationStepMatchesReference steps populations of sizes around the
// chunk length side by side with refStep, walker by walker, and compares
// positions, speeds and headings bit for bit after every slot: in a 50 m
// area, where over a third of the slots bounce, and in a paper-scale 1000 m
// one. Both must leave the walk stream at the same place.
func TestPopulationStepMatchesReference(t *testing.T) {
	const slots = 2000
	sizes := []int{1, walkChunk - 1, walkChunk, walkChunk + 1, 2*walkChunk + 7}
	for _, side := range []float64{50, 1000} {
		area, err := geom.NewArea(side)
		if err != nil {
			t.Fatal(err)
		}
		bounces, walkerSlots := 0, 0
		for _, n := range sizes {
			bounces += walkAgainstReference(t, uint64(side)+uint64(n), n, area, slots, 5)
			walkerSlots += n * slots
		}
		if side == 50 && 3*bounces < walkerSlots {
			t.Fatalf("%v m area: only %d of %d walker-slots bounced, want a third", side, bounces, walkerSlots)
		}
	}
}

// FuzzPopulationStep checks Population.Step against refStep bit for bit on
// arbitrary seeds, population sizes from 1 to 3·walkChunk+1, area sides,
// slot counts and slot lengths in (0, 1200] s.
func FuzzPopulationStep(f *testing.F) {
	f.Add(uint64(1), uint16(0), 1000.0, uint8(10), 5.0)
	f.Add(uint64(2), uint16(walkChunk), 50.0, uint8(40), 5.0)
	f.Add(uint64(3), uint16(2*walkChunk+7), 1264.9, uint8(3), 1200.0)
	f.Add(uint64(4), uint16(3*walkChunk), 1e-3, uint8(5), 0.25)
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, side float64, slots uint8, dtS float64) {
		n := 1 + int(size)%(3*walkChunk+1)
		side = math.Abs(side)
		if side > 1e5 {
			side = math.Mod(side, 1e5)
		}
		area, err := geom.NewArea(side)
		if err != nil {
			return
		}
		dtS = math.Abs(dtS)
		if dtS > 1200 {
			dtS = math.Mod(dtS, 1200)
		}
		if !(dtS > 0) {
			return
		}
		walkAgainstReference(t, seed, n, area, 1+int(slots)%32, dtS)
	})
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
	for i, class := range []Class{Pedestrian, Bike, Vehicle, Pedestrian} {
		if want, err := PaperParams(class); err != nil || pop.params[pop.class[i]] != want {
			t.Fatalf("walker %d is not a %s: %v", i, class, err)
		}
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

// Property: after arbitrary step sequences walkers of every class remain
// inside the area with bounded speed.
func TestWalkerInvariantProperty(t *testing.T) {
	area := testArea(t)
	f := func(seed uint64, steps uint8) bool {
		src := rng.New(seed)
		pop, err := NewPopulation(area, area.SamplePoints(src, 3), src)
		if err != nil {
			return false
		}
		for s := 0; s < int(steps%64)+1; s++ {
			if err := pop.Step(5, src); err != nil {
				return false
			}
			for i := range pop.Len() {
				p := classParams(t, i)
				if !area.Contains(pop.pos[i]) || pop.speed[i] < 0 || pop.speed[i] > p.SpeedCapMS {
					return false
				}
				if math.IsNaN(pop.pos[i].X) || math.IsNaN(pop.pos[i].Y) {
					return false
				}
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
