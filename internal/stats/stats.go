// Package stats provides streaming statistics accumulators used to aggregate
// Monte-Carlo simulation results. Every figure in the paper reports means
// with standard-deviation error bars over 100 network topologies (§VII-A);
// this package provides the numerically stable machinery for that.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Accumulator computes running mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddAll folds every observation into the accumulator.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or 0 if empty.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 for fewer than two
// observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the minimum observation, or 0 if empty.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the maximum observation, or 0 if empty.
func (a *Accumulator) Max() float64 { return a.max }

// Summary is an immutable snapshot of an accumulator.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize snapshots the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{N: a.n, Mean: a.mean, StdDev: a.StdDev(), Min: a.min, Max: a.max}
}

// String renders the summary as "mean ± stddev (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean, s.StdDev, s.N)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
// The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile over an already-ascending slice: no copy, no
// sort, no allocation. Hot loops that keep their sample buffer sorted (the
// serve path's latency scratch) use this to read several quantiles off one
// sort.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Series is a labelled sequence of (x, summary) points: one curve in a paper
// figure, e.g. "TrimCaching Spec" in Fig. 4(a). Timing marks a series of
// wall-clock measurements (running times), which vary run to run and are
// left out of any result comparison.
type Series struct {
	Label  string    `json:"label"`
	X      []float64 `json:"x"`
	Points []Summary `json:"points"`
	Timing bool      `json:"timing,omitempty"`
}

// Append adds one point to the series.
func (s *Series) Append(x float64, sum Summary) {
	s.X = append(s.X, x)
	s.Points = append(s.Points, sum)
}

// Table renders one or more series sharing an x-axis as an aligned text
// table, matching how the paper reports its figures as numbers.
type Table struct {
	Title   string
	XLabel  string
	YLabel  string
	Series  []Series
	Notes   []string
	Decimal int // fraction digits for values; default 4 when zero
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	dec := t.Decimal
	if dec == 0 {
		dec = 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.YLabel != "" {
		fmt.Fprintf(&b, "y: %s\n", t.YLabel)
	}
	header := []string{t.XLabel}
	for _, s := range t.Series {
		header = append(header, s.Label+" (mean)", s.Label+" (std)")
	}
	rows := [][]string{header}
	if len(t.Series) > 0 {
		for pi, x := range t.Series[0].X {
			row := []string{trimFloat(x)}
			for _, s := range t.Series {
				if pi < len(s.Points) {
					row = append(row,
						fmt.Sprintf("%.*f", dec, s.Points[pi].Mean),
						fmt.Sprintf("%.*f", dec, s.Points[pi].StdDev))
				} else {
					row = append(row, "-", "-")
				}
			}
			rows = append(rows, row)
		}
	}
	writeAligned(&b, rows)
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e12 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

func writeAligned(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
}
