package mobility

import (
	"fmt"
	"math"
	"testing"

	"trimcaching/internal/rng"
)

// sincosMismatch describes how sincos on x alone differs from
// math.Sincos(x) or from math.Sin(x), math.Cos(x), or returns "" if it has
// their bits. The references are the standard library as amd64 compiles
// it, without fused multiply-adds. A NaN matches any NaN from math.Sin and
// math.Cos, which return a NaN input as it came.
func sincosMismatch(x float64) string {
	var s, c [1]float64
	sincos(s[:], c[:], []float64{x})
	sin, cos := s[0], c[0]
	wantSin, wantCos := math.Sincos(x)
	if math.Float64bits(sin) != math.Float64bits(wantSin) || math.Float64bits(cos) != math.Float64bits(wantCos) {
		return fmt.Sprintf("sincos(%v [%#016x]) = %v, %v; math.Sincos = %v, %v", x, math.Float64bits(x), sin, cos, wantSin, wantCos)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	if !same(sin, math.Sin(x)) || !same(cos, math.Cos(x)) {
		return fmt.Sprintf("sincos(%v [%#016x]) = %v, %v; math.Sin, math.Cos = %v, %v", x, math.Float64bits(x), sin, cos, math.Sin(x), math.Cos(x))
	}
	return ""
}

func checkSincos(t *testing.T, x float64) {
	if msg := sincosMismatch(x); msg != "" {
		t.Fatal(msg)
	}
}

// TestSincosMatchesMath pins the branch-free port to the standard library
// bit for bit: 10^7 seeded draws over three ranges and over raw bit
// patterns, then the edges of the port's domain and of each octant.
func TestSincosMatchesMath(t *testing.T) {
	const perRange = 2_500_000
	src := rng.New(1)
	for _, r := range []float64{10, 1e4, 1 << 30} {
		for i := 0; i < perRange; i++ {
			checkSincos(t, src.Uniform(-r, r))
		}
	}
	for i := 0; i < perRange; i++ {
		checkSincos(t, math.Float64frombits(src.Uint64()))
	}

	edges := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, x := range []float64{1 << 29, -(1 << 29)} {
		edges = append(edges, x, math.Nextafter(x, 0), math.Nextafter(x, 2*x))
	}
	for k := -64; k <= 64; k++ {
		x := float64(k) * math.Pi / 4
		edges = append(edges, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range edges {
		checkSincos(t, x)
	}
	// One call over all the edges, ports and fallbacks mixed, gives each
	// its own result.
	sin, cos := make([]float64, len(edges)), make([]float64, len(edges))
	sincos(sin, cos, edges)
	for i, x := range edges {
		wantSin, wantCos := math.Sincos(x)
		if math.Float64bits(sin[i]) != math.Float64bits(wantSin) || math.Float64bits(cos[i]) != math.Float64bits(wantCos) {
			t.Fatalf("edge %d in one call: sincos(%v) = %v, %v; math.Sincos = %v, %v", i, x, sin[i], cos[i], wantSin, wantCos)
		}
	}
}

func FuzzSincos(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, math.Pi / 4, 3 * math.Pi / 4, -5 * math.Pi / 4,
		1e4, -1e4, 1 << 29, math.Nextafter(1<<29, 0), 1e300, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()} {
		f.Add(x)
	}
	f.Fuzz(checkSincos)
}
