package rng

import (
	"errors"
	"fmt"
	"math"
)

// ErrZipfParams reports invalid Zipf parameters.
var ErrZipfParams = errors.New("zipf: n must be >= 1 and s must be finite and non-negative")

// Zipf is a bounded Zipf distribution over ranks {0, 1, ..., n-1} with
// exponent s: P(rank) ∝ 1/(rank+1)^s. The paper draws per-user model request
// probabilities from a Zipf law over the model library (§VII-A, [43]).
type Zipf struct {
	pmf []float64
}

// NewZipf builds a bounded Zipf distribution with n ranks and exponent s.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 || math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		return nil, fmt.Errorf("%w: n=%d s=%v", ErrZipfParams, n, s)
	}
	pmf := make([]float64, n)
	var total float64
	for i := range pmf {
		pmf[i] = 1 / math.Pow(float64(i+1), s)
		total += pmf[i]
	}
	for i := range pmf {
		pmf[i] /= total
	}
	return &Zipf{pmf: pmf}, nil
}

// PMF returns a copy of the probability mass function indexed by rank.
func (z *Zipf) PMF() []float64 {
	out := make([]float64, len(z.pmf))
	copy(out, z.pmf)
	return out
}
