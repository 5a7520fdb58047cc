package wireless

import (
	"fmt"
	"math"

	"trimcaching/internal/rng"
)

// Extended link-budget knobs beyond the paper's eq. (1). All default to
// zero (disabled), preserving the paper's model exactly; experiments can
// enable them for sensitivity studies.
//
// NoiseFigureDB and InterferenceMarginDB raise the effective noise floor:
// n0_eff = n0 · 10^((NF + IM)/10). ShadowingStdDB enables log-normal
// shadowing: a per-link slow-fading gain 10^(X/10) with X ~ N(0, σ²) dB
// that multiplies the path gain on top of Rayleigh fast fading.

// WithShadowing returns a copy of the config with log-normal shadowing of
// the given standard deviation in dB.
func (c Config) WithShadowing(stdDB float64) Config {
	c.ShadowingStdDB = stdDB
	return c
}

// effectiveNoisePSD applies the noise figure and interference margin.
func (c Config) effectiveNoisePSD() float64 {
	lift := c.NoiseFigureDB + c.InterferenceMarginDB
	if lift == 0 {
		return c.NoisePSD
	}
	return c.NoisePSD * math.Pow(10, lift/10)
}

// SampleShadowGain draws one link's shadowing power gain: log-normal with
// median 1 (0 dB) and the configured dB standard deviation. With shadowing
// disabled it returns exactly 1.
func (c Config) SampleShadowGain(src *rng.Source) float64 {
	if c.ShadowingStdDB <= 0 {
		return 1
	}
	return math.Pow(10, c.ShadowingStdDB*src.Norm()/10)
}

// SampleShadowGains draws a server×user matrix of shadowing gains.
func (c Config) SampleShadowGains(numServers, numUsers int, src *rng.Source) ([][]float64, error) {
	if numServers <= 0 || numUsers <= 0 {
		return nil, fmt.Errorf("wireless: need positive dims, got %dx%d", numServers, numUsers)
	}
	out := make([][]float64, numServers)
	for m := range out {
		out[m] = make([]float64, numUsers)
		for k := range out[m] {
			out[m][k] = c.SampleShadowGain(src)
		}
	}
	return out, nil
}
