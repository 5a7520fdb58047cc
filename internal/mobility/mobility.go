// Package mobility implements the user mobility model of §VII-E: three user
// classes (pedestrians, bikes, vehicles) whose speed, acceleration, heading,
// and angular velocity evolve per 5-second time slot, bouncing off the
// deployment-area boundary. The experiment places models once at t = 0 and
// watches the cache hit ratio degrade as users move.
package mobility

import (
	"fmt"
	"math"
	"slices"

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

// checkDuration rejects a step duration that is not positive and finite: a
// NaN or infinite one would move the walkers to (NaN, NaN).
func checkDuration(dtS float64) error {
	if !(dtS > 0) || math.IsInf(dtS, 1) {
		return fmt.Errorf("mobility: step duration must be positive and finite, got %v", dtS)
	}
	return nil
}

// walkChunk is how many walkers Step advances per batch of drawn words.
const walkChunk = 256

// Population is a set of walkers sharing an area, held as arrays: walker i
// is at pos[i], moves at speed[i] m/s on heading[i] radians, and follows
// params[class[i]].
type Population struct {
	area    geom.Area
	params  [3]Params // pedestrian, bike, vehicle
	pos     []geom.Point
	speed   []float64
	heading []float64
	class   []uint8
	words   [2 * walkChunk]uint64 // one chunk's draws, reused by every Step
	sin     [walkChunk]float64    // the chunk's sines and cosines of heading
	cos     [walkChunk]float64
}

// NewPopulation creates walkers at the given positions, cycling through the
// three paper classes (pedestrian, bike, vehicle) so each class gets about a
// third of the users. Each walker draws its initial speed, uniform in its
// class range, then its heading, uniform in [0, π], in walker order.
func NewPopulation(area geom.Area, positions []geom.Point, src *rng.Source) (*Population, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("mobility: at least one user required")
	}
	n := len(positions)
	p := &Population{
		area:    area,
		pos:     slices.Clone(positions),
		speed:   make([]float64, n),
		heading: make([]float64, n),
		class:   make([]uint8, n),
	}
	for c, class := range []Class{Pedestrian, Bike, Vehicle} {
		params, err := PaperParams(class)
		if err != nil {
			return nil, err
		}
		p.params[c] = params
	}
	for i := range p.pos {
		k := i % len(p.params)
		p.class[i] = uint8(k)
		p.speed[i] = src.Uniform(p.params[k].SpeedMinMS, p.params[k].SpeedMaxMS)
		p.heading[i] = src.Uniform(0, math.Pi)
	}
	return p, nil
}

// Step advances every walker by dtS seconds, which must be positive and
// finite: each draws an acceleration and an angular velocity, updates its
// speed and heading, moves, and bounces off the area's boundary. Walkers
// take two words of src each, in walker order, a chunk of walkChunk at a
// time.
func (p *Population) Step(dtS float64, src *rng.Source) error {
	if err := checkDuration(dtS); err != nil {
		return err
	}
	for lo := 0; lo < len(p.pos); lo += walkChunk {
		hi := min(lo+walkChunk, len(p.pos))
		words := p.words[:2*(hi-lo)]
		src.Fill(words)
		p.update(p.speed[lo:hi], p.heading[lo:hi], p.class[lo:hi], words, dtS)
		p.move(p.pos[lo:hi], p.speed[lo:hi], p.heading[lo:hi], dtS)
	}
	return nil
}

// update draws each walker's acceleration and angular velocity from its two
// words and updates its speed and heading. Products are wrapped in float64
// conversions so no architecture fuses them into multiply-adds.
//
// The speed clamp to [0, SpeedCapMS] is min(max(·, 0), cap), which amd64
// compiles without a branch. It differs from "if < 0, 0; if > cap, cap"
// only on −0, which max turns into +0, and the clamped sum is never −0: a
// round-to-nearest sum is −0 only when both addends are, and a speed never
// is, since initial speeds are at least SpeedMinMS > 0 and the clamp
// returns +0 for anything at or below zero.
func (p *Population) update(speed, heading []float64, class []uint8, words []uint64, dtS float64) {
	for i := range speed {
		c := &p.params[class[i]]
		acc := rng.UniformWord(words[2*i], -c.AccMaxMS2, c.AccMaxMS2)
		speed[i] = min(max(speed[i]+float64(acc*dtS), 0), c.SpeedCapMS)
		angVel := rng.UniformWord(words[2*i+1], -c.AngVelMaxRadS, c.AngVelMaxRadS)
		heading[i] += float64(angVel * dtS)
	}
}

// move computes the chunk's sines and cosines of heading, then translates
// each walker along its heading. Only a walker that left the area is
// folded back in, and only a bounce mirrors its heading, on the axis that
// bounced.
func (p *Population) move(pos []geom.Point, speed, heading []float64, dtS float64) {
	sin, cos := p.sin[:len(pos)], p.cos[:len(pos)]
	sincos(sin, cos, heading)
	for i := range pos {
		d := speed[i] * dtS
		next := pos[i].Add(float64(d*cos[i]), float64(d*sin[i]))
		if !p.area.Contains(next) {
			var sx, sy float64
			next, sx, sy = p.area.Reflect(next)
			if sx < 0 || sy < 0 {
				heading[i] = math.Atan2(sin[i]*sy, cos[i]*sx)
			}
		}
		pos[i] = next
	}
}

// Positions returns the current position of every walker.
func (p *Population) Positions() []geom.Point {
	return p.PositionsInto(make([]geom.Point, len(p.pos)))
}

// PositionsInto writes the current position of every walker into dst, which
// must have one slot per walker, and returns it. Time-stepped loops reuse
// one buffer across checkpoints.
func (p *Population) PositionsInto(dst []geom.Point) []geom.Point {
	copy(dst[:len(p.pos)], p.pos)
	return dst
}

// Len returns the number of walkers.
func (p *Population) Len() int { return len(p.pos) }

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
