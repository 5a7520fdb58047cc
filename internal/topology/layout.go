package topology

import (
	"fmt"
	"math"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

// Layout selects how edge-server positions are drawn. The zero value is the
// paper's uniform random placement (§VII-A); the alternatives support
// deployment-sensitivity studies.
type Layout int

// Server layout modes.
const (
	// LayoutUniform places servers uniformly at random (the paper's model).
	LayoutUniform Layout = iota
	// LayoutGrid places servers at the centers of a near-square grid —
	// a planned deployment.
	LayoutGrid
	// LayoutPPP draws the server count from a Poisson distribution with
	// mean NumServers and places them uniformly — an unplanned (stochastic
	// geometry) deployment. At least one server is always placed.
	LayoutPPP
)

// String returns the layout name.
func (l Layout) String() string {
	switch l {
	case LayoutUniform:
		return "uniform"
	case LayoutGrid:
		return "grid"
	case LayoutPPP:
		return "ppp"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// serverPositions draws server positions per the layout.
func serverPositions(layout Layout, area geom.Area, numServers int, src *rng.Source) ([]geom.Point, error) {
	switch layout {
	case LayoutUniform:
		return area.SamplePoints(src, numServers), nil
	case LayoutGrid:
		return gridPositions(area, numServers), nil
	case LayoutPPP:
		n := src.Poisson(float64(numServers))
		if n < 1 {
			n = 1
		}
		return area.SamplePoints(src, n), nil
	default:
		return nil, fmt.Errorf("topology: unknown layout %d", int(layout))
	}
}

// gridPositions places n servers at cell centers of the smallest square
// grid with at least n cells, filling row-major.
func gridPositions(area geom.Area, n int) []geom.Point {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := int(math.Ceil(float64(n) / float64(cols)))
	cellW := area.Side / float64(cols)
	cellH := area.Side / float64(rows)
	out := make([]geom.Point, 0, n)
	for r := 0; r < rows && len(out) < n; r++ {
		for c := 0; c < cols && len(out) < n; c++ {
			out = append(out, geom.Point{
				X: (float64(c) + 0.5) * cellW,
				Y: (float64(r) + 0.5) * cellH,
			})
		}
	}
	return out
}
