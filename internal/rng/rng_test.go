package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 60 {
		t.Fatalf("zero seed produced only %d distinct values in 64 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split("fading")
	b := parent.Split("topology")
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams with different labels should differ")
	}

	// Splitting must not depend on how much the parent has been consumed.
	p1 := New(7)
	p2 := New(7)
	p2.Uint64()
	p2.Uint64()
	c1 := p1.Split("x")
	c2 := p2.Split("x")
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("split must be position-independent")
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	parent := New(3)
	first := map[uint64]int{}
	for i := 0; i < 200; i++ {
		v := parent.SplitIndex("trial", i).Uint64()
		if prev, ok := first[v]; ok {
			t.Fatalf("streams %d and %d share first draw", prev, i)
		}
		first[v] = i
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Uniform(0.5, 1.0)
	}
	mean := sum / n
	if math.Abs(mean-0.75) > 0.005 {
		t.Fatalf("Uniform(0.5,1) mean = %v, want ~0.75", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) value %d occurred %d times, expected ~10000", v, c)
		}
	}
}

func TestIntnDegenerate(t *testing.T) {
	r := New(1)
	if got := r.Intn(0); got != 0 {
		t.Fatalf("Intn(0) = %d, want 0", got)
	}
	if got := r.Intn(-5); got != 0 {
		t.Fatalf("Intn(-5) = %d, want 0", got)
	}
	if got := r.Intn(1); got != 0 {
		t.Fatalf("Intn(1) = %d, want 0", got)
	}
}

func TestIntRange(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(29, 40)
		if v < 29 || v > 40 {
			t.Fatalf("IntRange(29,40) = %d", v)
		}
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d", got)
	}
	if got := r.IntRange(5, 3); got != 5 {
		t.Fatalf("IntRange(5,3) = %d, want lo", got)
	}
}

// TestSkipExpMatchesExp pins SkipExp to Exp's stream consumption: n calls
// of either leave a source in the same state, also from a crafted state
// whose first word is the zero draw Exp rejects.
func TestSkipExpMatchesExp(t *testing.T) {
	for _, n := range []int{1, 7, 1000} {
		a, b := New(29), New(29)
		for i := 0; i < n; i++ {
			a.Exp()
			b.SkipExp()
		}
		if a.s != b.s {
			t.Fatalf("n=%d: SkipExp state %x != Exp state %x", n, b.s, a.s)
		}
	}
	// With s[1] = 0 the next xoshiro output is exactly 0.
	crafted := Source{s: [4]uint64{1, 0, 0, 0}}
	probe := crafted
	if probe.Uint64()>>11 != 0 || probe.Uint64()>>11 == 0 {
		t.Fatal("crafted state must yield one rejected draw, then an accepted one")
	}
	a, b := crafted, crafted
	if v := a.Exp(); v <= 0 {
		t.Fatalf("Exp after a rejected draw = %v, want > 0", v)
	}
	b.SkipExp()
	if a.s != probe.s || b.s != probe.s {
		t.Fatalf("after one rejected and one accepted word: Exp %x, SkipExp %x, want %x", a.s, b.s, probe.s)
	}
}

func TestExpMean(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatalf("Exp() negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(29)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Norm variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(37)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make([]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("shuffle produced duplicate: %v", vals)
		}
		seen[v] = true
	}
}

func TestCategorical(t *testing.T) {
	r := New(41)
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[0] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("category ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalDegenerate(t *testing.T) {
	r := New(43)
	if got := r.Categorical(nil); got != 0 {
		t.Fatalf("Categorical(nil) = %d", got)
	}
	if got := r.Categorical([]float64{0, 0}); got != 0 {
		t.Fatalf("Categorical(zeros) = %d", got)
	}
}

func TestZipfInvalid(t *testing.T) {
	cases := []struct {
		n int
		s float64
	}{
		{0, 1}, {-1, 1}, {10, -0.5}, {10, math.NaN()}, {10, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := NewZipf(c.n, c.s); err == nil {
			t.Fatalf("NewZipf(%d, %v): expected error", c.n, c.s)
		}
	}
}

func TestZipfPMFNormalized(t *testing.T) {
	for _, s := range []float64{0, 0.5, 0.8, 1.0, 2.0} {
		z, err := NewZipf(300, s)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, p := range z.PMF() {
			if p < 0 {
				t.Fatalf("s=%v: negative pmf", s)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("s=%v: pmf sums to %v", s, total)
		}
	}
}

func TestZipfMonotone(t *testing.T) {
	z, err := NewZipf(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pmf := z.PMF()
	for i := 1; i < len(pmf); i++ {
		if pmf[i] > pmf[i-1] {
			t.Fatalf("pmf not non-increasing at %d", i)
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 10; rank++ {
		if math.Abs(z.Prob(rank)-0.1) > 1e-12 {
			t.Fatalf("s=0 rank %d prob %v, want 0.1", rank, z.Prob(rank))
		}
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	z, err := NewZipf(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if z.Prob(-1) != 0 || z.Prob(5) != 0 {
		t.Fatal("out-of-range ranks must have probability 0")
	}
}

func TestZipfSampleMatchesPMF(t *testing.T) {
	z, err := NewZipf(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := New(47)
	counts := make([]int, 20)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(src)]++
	}
	for rank, p := range z.PMF() {
		got := float64(counts[rank]) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("rank %d: empirical %v vs pmf %v", rank, got, p)
		}
	}
}

// Property: Sample always returns a valid rank for arbitrary seeds.
func TestZipfSampleInRangeProperty(t *testing.T) {
	z, err := NewZipf(30, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		src := New(seed)
		for i := 0; i < 50; i++ {
			r := z.Sample(src)
			if r < 0 || r >= 30 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Float64 stays in [0,1) for arbitrary seeds.
func TestFloat64Property(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
