package geom

import (
	"math"
	"testing"
	"testing/quick"

	"trimcaching/internal/rng"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{1, 0}, 2},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.q.Dist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatal("Dist must be symmetric")
		}
	}
}

func TestAdd(t *testing.T) {
	p := Point{1, 2}.Add(3, -1)
	if p.X != 4 || p.Y != 1 {
		t.Fatalf("Add = %v", p)
	}
}

func TestNewAreaInvalid(t *testing.T) {
	for _, side := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewArea(side); err == nil {
			t.Fatalf("NewArea(%v): want error", side)
		}
	}
}

func TestContains(t *testing.T) {
	a, err := NewArea(1000)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{1000, 1000}, true},
		{Point{500, 500}, true},
		{Point{-0.1, 500}, false},
		{Point{500, 1000.1}, false},
	}
	for _, c := range cases {
		if got := a.Contains(c.p); got != c.want {
			t.Fatalf("Contains(%v) = %v", c.p, got)
		}
	}
}

func TestSamplePointsInside(t *testing.T) {
	a, err := NewArea(1000)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	pts := a.SamplePoints(src, 500)
	if len(pts) != 500 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !a.Contains(p) {
			t.Fatalf("sampled point outside area: %v", p)
		}
	}
}

func TestSamplePointsUniformish(t *testing.T) {
	a, err := NewArea(1000)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(2)
	var leftHalf int
	const n = 20000
	for i := 0; i < n; i++ {
		if a.SamplePoint(src).X < 500 {
			leftHalf++
		}
	}
	frac := float64(leftHalf) / n
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("left-half fraction %v, want ~0.5", frac)
	}
}

func TestReflectIdentityInside(t *testing.T) {
	a, err := NewArea(100)
	if err != nil {
		t.Fatal(err)
	}
	p, sx, sy := a.Reflect(Point{30, 70})
	if p != (Point{30, 70}) || sx != 1 || sy != 1 {
		t.Fatalf("Reflect inside changed point: %v %v %v", p, sx, sy)
	}
}

func TestReflectKnown(t *testing.T) {
	a, err := NewArea(100)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in  Point
		out Point
		sx  float64
		sy  float64
	}{
		{Point{110, 50}, Point{90, 50}, -1, 1},
		{Point{-10, 50}, Point{10, 50}, -1, 1},
		{Point{50, 130}, Point{50, 70}, 1, -1},
		{Point{250, 50}, Point{50, 50}, 1, 1}, // wraps a full period then reflects
	}
	for _, c := range cases {
		p, sx, sy := a.Reflect(c.in)
		if math.Abs(p.X-c.out.X) > 1e-9 || math.Abs(p.Y-c.out.Y) > 1e-9 {
			t.Fatalf("Reflect(%v) = %v, want %v", c.in, p, c.out)
		}
		if sx != c.sx || sy != c.sy {
			t.Fatalf("Reflect(%v) signs = %v,%v want %v,%v", c.in, sx, sy, c.sx, c.sy)
		}
	}
}

// Property: Reflect always lands inside the area and signs are +/-1.
func TestReflectProperty(t *testing.T) {
	a, err := NewArea(275)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		x = math.Mod(x, 1e7)
		y = math.Mod(y, 1e7)
		p, sx, sy := a.Reflect(Point{x, y})
		if !a.Contains(p) {
			return false
		}
		return (sx == 1 || sx == -1) && (sy == 1 || sy == -1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refFold is the boundary fold of one coordinate.
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

// TestReflectMatchesFold pins what lets the walk skip Reflect for a point
// Contains accepts: Reflect returns such a point bit for bit, with signs
// +1, and folds any other. It checks the walls, their neighbours, far
// outside, and NaN and ±Inf.
func TestReflectMatchesFold(t *testing.T) {
	for _, side := range []float64{50, 275, 1264.9} {
		a := Area{Side: side}
		var xs []float64
		for _, v := range []float64{0, side, 2 * side, 1e6 * side, -1e6 * side} {
			xs = append(xs, v, -v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		xs = append(xs, math.Copysign(0, -1), side/3, math.NaN(), math.Inf(1), math.Inf(-1))
		for _, v := range xs {
			p := Point{X: v, Y: side / 3}
			want, wantSign := v, 1.0
			if !a.Contains(p) {
				want, wantSign = refFold(v, side)
			}
			got, sx, sy := a.Reflect(p)
			if math.Float64bits(got.X) != math.Float64bits(want) || sx != wantSign || got.Y != p.Y || sy != 1 {
				t.Errorf("side %v: Reflect(%v) = %v, %v, %v; want x %v, signs %v, 1", side, p, got, sx, sy, want, wantSign)
			}
		}
	}
}
