package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.n != 0 || a.mean != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("zero-value accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.n != 1 || a.mean != 3.5 || a.Variance() != 0 {
		t.Fatalf("single obs: n=%d mean=%v var=%v", a.n, a.mean, a.Variance())
	}
	if a.min != 3.5 || a.max != 3.5 {
		t.Fatalf("min/max = %v/%v", a.min, a.max)
	}
}

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if got := a.mean; math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", got)
	}
	// Sample variance of this classic dataset is 32/7.
	if got := a.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, 32.0/7.0)
	}
	if a.min != 2 || a.max != 9 {
		t.Fatalf("min/max = %v/%v", a.min, a.max)
	}
}

func TestAccumulatorNumericalStability(t *testing.T) {
	// Naive sum-of-squares catastrophically cancels here; Welford must not.
	var a Accumulator
	const offset = 1e9
	for _, x := range []float64{offset + 4, offset + 7, offset + 13, offset + 16} {
		a.Add(x)
	}
	if got := a.mean; math.Abs(got-(offset+10)) > 1e-3 {
		t.Fatalf("mean = %v", got)
	}
	if got := a.Variance(); math.Abs(got-30) > 1e-3 {
		t.Fatalf("variance = %v, want 30", got)
	}
}

// Property: variance is never negative and mean stays within [min, max].
func TestAccumulatorProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true // skip degenerate float inputs
			}
			if math.Abs(x) > 1e100 {
				x = math.Mod(x, 1e6)
			}
			a.Add(x)
		}
		if a.n == 0 {
			return true
		}
		if a.Variance() < 0 {
			return false
		}
		return a.mean >= a.min-1e-9 && a.mean <= a.max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-0.5, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Fatal("Quantile modified its input")
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Quantile interp = %v, want 5", got)
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3} {
		a.Add(x)
	}
	s := a.Summarize().String()
	if !strings.Contains(s, "2.0000") || !strings.Contains(s, "n=3") {
		t.Fatalf("unexpected summary string %q", s)
	}
}

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Label = "greedy"
	s.Append(0.5, Summary{N: 3, Mean: 0.7})
	s.Append(1.0, Summary{N: 3, Mean: 0.9})
	if len(s.X) != 2 || len(s.Points) != 2 {
		t.Fatalf("series lengths: %d, %d", len(s.X), len(s.Points))
	}
	if s.X[1] != 1.0 || s.Points[1].Mean != 0.9 {
		t.Fatal("series point mismatch")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:  "Fig. 4(a)",
		XLabel: "Q (GB)",
		YLabel: "cache hit ratio",
		Series: []Series{
			{
				Label:  "Spec",
				X:      []float64{0.5, 1},
				Points: []Summary{{Mean: 0.42, StdDev: 0.01}, {Mean: 0.80, StdDev: 0.02}},
			},
			{
				Label:  "Gen",
				X:      []float64{0.5, 1},
				Points: []Summary{{Mean: 0.40, StdDev: 0.01}, {Mean: 0.75, StdDev: 0.02}},
			},
		},
		Notes: []string{"synthetic"},
	}
	out := tbl.Render()
	for _, want := range []string{"Fig. 4(a)", "Q (GB)", "Spec (mean)", "0.8000", "note: synthetic", "cache hit ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableRenderRaggedSeries(t *testing.T) {
	tbl := Table{
		Title:  "ragged",
		XLabel: "x",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Points: []Summary{{Mean: 1}, {Mean: 2}}},
			{Label: "b", X: []float64{1}, Points: []Summary{{Mean: 3}}},
		},
	}
	out := tbl.Render()
	if !strings.Contains(out, "-") {
		t.Fatalf("ragged rows should render placeholders:\n%s", out)
	}
}

func TestTableRenderEmpty(t *testing.T) {
	tbl := Table{Title: "empty", XLabel: "x"}
	if out := tbl.Render(); !strings.Contains(out, "empty") {
		t.Fatalf("empty table should still render title:\n%s", out)
	}
}
