// Package geom provides the 2-D geometry substrate for the wireless edge
// network simulation: the square deployment area, uniform point sampling,
// distances, and boundary reflection for the mobility model (§VII-A, §VII-E
// of the paper).
package geom

import (
	"fmt"
	"math"

	"trimcaching/internal/rng"
)

// Point is a position in metres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dist returns the Euclidean distance in metres between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point {
	return Point{X: p.X + dx, Y: p.Y + dy}
}

// Area is an axis-aligned square deployment area [0, Side] x [0, Side]
// metres. The paper uses a 1 km^2 square (Side = 1000) for the main
// experiments and 400 m for the exhaustive-search comparison.
type Area struct {
	Side float64 `json:"side"`
}

// NewArea returns a square area with the given side in metres.
func NewArea(side float64) (Area, error) {
	if side <= 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return Area{}, fmt.Errorf("geom: invalid area side %v", side)
	}
	return Area{Side: side}, nil
}

// Contains reports whether p lies inside the area (inclusive). A point it
// accepts needs no Reflect: the fold would return it unchanged.
func (a Area) Contains(p Point) bool {
	return p.X >= 0 && p.X <= a.Side && p.Y >= 0 && p.Y <= a.Side
}

// SamplePoint draws a uniform point inside the area.
func (a Area) SamplePoint(src *rng.Source) Point {
	return Point{X: src.Uniform(0, a.Side), Y: src.Uniform(0, a.Side)}
}

// SamplePoints draws n uniform points inside the area.
func (a Area) SamplePoints(src *rng.Source, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = a.SamplePoint(src)
	}
	return pts
}

// Reflect maps an arbitrary point back into the area by mirror reflection at
// the boundaries, and returns the reflected point together with the sign
// flips to apply to the velocity components. Mobility steps that would leave
// the square bounce off its walls; the walk calls Reflect only for a point
// Contains rejects.
func (a Area) Reflect(p Point) (Point, float64, float64) {
	x, sx := reflect1D(p.X, a.Side)
	y, sy := reflect1D(p.Y, a.Side)
	return Point{X: x, Y: y}, sx, sy
}

// reflect1D folds v into [0, side] via repeated mirror reflection and
// returns the coordinate plus the velocity sign (+1 or -1). A v already
// inside comes back unchanged with sign +1: Mod(v, 2·side) is exactly v
// there.
func reflect1D(v, side float64) (float64, float64) {
	sign := 1.0
	if side <= 0 {
		return 0, sign
	}
	period := 2 * side
	v = math.Mod(v, period)
	if v < 0 {
		v += period
	}
	if v > side {
		v = period - v
		sign = -1
	}
	return v, sign
}
