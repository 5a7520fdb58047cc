// Package mobility implements the user mobility model of §VII-E: three user
// classes (pedestrians, bikes, vehicles) whose speed, acceleration, heading,
// and angular velocity evolve per 5-second time slot, bouncing off the
// deployment-area boundary. The experiment places models once at t = 0 and
// watches the cache hit ratio degrade as users move.
package mobility

import (
	"fmt"
	"math"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

// Class is a user mobility class.
type Class int

// The paper's three mobility classes.
const (
	Pedestrian Class = iota + 1
	Bike
	Vehicle
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Pedestrian:
		return "pedestrian"
	case Bike:
		return "bike"
	case Vehicle:
		return "vehicle"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Params are the per-class dynamics bounds.
type Params struct {
	// SpeedMinMS/SpeedMaxMS bound the initial speed draw in m/s.
	SpeedMinMS float64
	SpeedMaxMS float64
	// AccMaxMS2 bounds the per-slot acceleration draw: U[-AccMax, AccMax].
	AccMaxMS2 float64
	// AngVelMaxRadS bounds the per-slot angular velocity: U[-Max, Max].
	AngVelMaxRadS float64
	// SpeedCapMS clamps the evolving speed to [0, SpeedCapMS] so random
	// accelerations cannot drift speeds to absurd values; the paper leaves
	// this implicit, we cap at the class's initial maximum.
	SpeedCapMS float64
}

// PaperParams returns §VII-E's parameters: pedestrians 0.5–1.8 m/s with
// ±0.3 m/s² and ±π/4 rad/s; bikes 2–8 m/s, ±1 m/s², ±π/3 rad/s; vehicles
// 5.5–20 m/s, ±3 m/s², ±π/2 rad/s.
func PaperParams(c Class) (Params, error) {
	switch c {
	case Pedestrian:
		return Params{SpeedMinMS: 0.5, SpeedMaxMS: 1.8, AccMaxMS2: 0.3, AngVelMaxRadS: math.Pi / 4, SpeedCapMS: 1.8}, nil
	case Bike:
		return Params{SpeedMinMS: 2, SpeedMaxMS: 8, AccMaxMS2: 1, AngVelMaxRadS: math.Pi / 3, SpeedCapMS: 8}, nil
	case Vehicle:
		return Params{SpeedMinMS: 5.5, SpeedMaxMS: 20, AccMaxMS2: 3, AngVelMaxRadS: math.Pi / 2, SpeedCapMS: 20}, nil
	default:
		return Params{}, fmt.Errorf("mobility: unknown class %d", int(c))
	}
}

// Walker is one moving user.
type Walker struct {
	class   Class
	params  Params
	pos     geom.Point
	speed   float64 // m/s
	heading float64 // radians
}

// NewWalker creates a walker at pos with the paper's initial draws: speed
// uniform in the class range, orientation uniform in [0, π].
func NewWalker(pos geom.Point, class Class, src *rng.Source) (*Walker, error) {
	p, err := PaperParams(class)
	if err != nil {
		return nil, err
	}
	return &Walker{
		class:   class,
		params:  p,
		pos:     pos,
		speed:   src.Uniform(p.SpeedMinMS, p.SpeedMaxMS),
		heading: src.Uniform(0, math.Pi),
	}, nil
}

// checkDuration rejects a step duration that is not positive and finite: a
// NaN or infinite one would move the walker to (NaN, NaN).
func checkDuration(dtS float64) error {
	if !(dtS > 0) || math.IsInf(dtS, 1) {
		return fmt.Errorf("mobility: step duration must be positive and finite, got %v", dtS)
	}
	return nil
}

// step advances the walker by dtS seconds inside area: draw a new
// acceleration and angular velocity, update speed and heading, move, and
// reflect off the boundary. dtS must pass checkDuration. Its products are
// wrapped in float64 conversions so no architecture fuses them into
// multiply-adds.
func (w *Walker) step(dtS float64, area geom.Area, src *rng.Source) {
	acc := src.Uniform(-w.params.AccMaxMS2, w.params.AccMaxMS2)
	w.speed += float64(acc * dtS)
	if w.speed < 0 {
		w.speed = 0
	}
	if w.speed > w.params.SpeedCapMS {
		w.speed = w.params.SpeedCapMS
	}
	angVel := src.Uniform(-w.params.AngVelMaxRadS, w.params.AngVelMaxRadS)
	w.heading += float64(angVel * dtS)

	sin, cos := sincos(w.heading)
	d := w.speed * dtS
	reflected, sx, sy := area.Reflect(w.pos.Add(float64(d*cos), float64(d*sin)))
	w.pos = reflected
	if sx < 0 || sy < 0 {
		// Mirror the heading on the axis that bounced.
		w.heading = math.Atan2(sin*sy, cos*sx)
	}
}

// Population is a set of walkers sharing an area.
type Population struct {
	area    geom.Area
	walkers []Walker
}

// NewPopulation creates walkers at the given positions, cycling through the
// three paper classes (pedestrian, bike, vehicle) so each class gets about a
// third of the users.
func NewPopulation(area geom.Area, positions []geom.Point, src *rng.Source) (*Population, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("mobility: at least one user required")
	}
	classes := []Class{Pedestrian, Bike, Vehicle}
	p := &Population{area: area, walkers: make([]Walker, len(positions))}
	for i, pos := range positions {
		w, err := NewWalker(pos, classes[i%len(classes)], src)
		if err != nil {
			return nil, err
		}
		p.walkers[i] = *w
	}
	return p, nil
}

// Step advances every walker by dtS seconds, which must be positive and
// finite.
func (p *Population) Step(dtS float64, src *rng.Source) error {
	if err := checkDuration(dtS); err != nil {
		return err
	}
	for i := range p.walkers {
		p.walkers[i].step(dtS, p.area, src)
	}
	return nil
}

// Positions returns the current position of every walker.
func (p *Population) Positions() []geom.Point {
	return p.PositionsInto(make([]geom.Point, len(p.walkers)))
}

// PositionsInto writes the current position of every walker into dst, which
// must have one slot per walker, and returns it. Time-stepped loops reuse
// one buffer across checkpoints.
func (p *Population) PositionsInto(dst []geom.Point) []geom.Point {
	for i := range p.walkers {
		dst[i] = p.walkers[i].pos
	}
	return dst
}

// Len returns the number of walkers.
func (p *Population) Len() int { return len(p.walkers) }

// SlotsPerCheckpoint returns how many slotS-second slots make up one
// checkpointMin-minute checkpoint, rounded to the nearest slot. Fewer than
// one slot is an error: a slot over twice the checkpoint's length (or a
// zero, negative, NaN or infinite one) would otherwise freeze every user.
func SlotsPerCheckpoint(checkpointMin int, slotS float64) (int, error) {
	if !(slotS > 0) {
		return 0, fmt.Errorf("mobility: slot length must be positive, got %v s", slotS)
	}
	n := int(float64(checkpointMin*60)/slotS + 0.5)
	if n < 1 {
		return 0, fmt.Errorf("mobility: %v s slots round to no slot per %d min checkpoint", slotS, checkpointMin)
	}
	return n, nil
}

// Walk is the time axis of §VII-E: a population stepped in fixed slots,
// read out once per checkpoint. Every engine walks its users through one.
type Walk struct {
	pop   *Population
	src   *rng.Source
	slotS float64
	slots int
	pos   []geom.Point
}

// NewWalk draws a population at positions on src's "mobility" stream and
// steps it on src's "walk" stream, SlotsPerCheckpoint(checkpointMin, slotS)
// slots per checkpoint.
func NewWalk(area geom.Area, positions []geom.Point, src *rng.Source, checkpointMin int, slotS float64) (*Walk, error) {
	slots, err := SlotsPerCheckpoint(checkpointMin, slotS)
	if err != nil {
		return nil, err
	}
	pop, err := NewPopulation(area, positions, src.Split("mobility"))
	if err != nil {
		return nil, err
	}
	return &Walk{
		pop:   pop,
		src:   src.Split("walk"),
		slotS: slotS,
		slots: slots,
		pos:   pop.PositionsInto(make([]geom.Point, pop.Len())),
	}, nil
}

// Checkpoint walks every user through one checkpoint's slots and returns
// their new positions: the walk's own buffer (see Positions), overwritten
// by the next Checkpoint.
func (w *Walk) Checkpoint() ([]geom.Point, error) {
	for s := 0; s < w.slots; s++ {
		if err := w.pop.Step(w.slotS, w.src); err != nil {
			return nil, err
		}
	}
	return w.pop.PositionsInto(w.pos), nil
}

// Positions returns the buffer Checkpoint fills: the initial positions
// until the first Checkpoint, the latest checkpoint's after.
func (w *Walk) Positions() []geom.Point { return w.pos }
