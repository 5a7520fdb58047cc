// Package wireless implements the wireless channel model of the paper
// (§III-A, eq. 1): Shannon-capacity downlink rates with distance-based path
// loss, equal sharing of an edge server's bandwidth and transmit power among
// its expected active associated users, additive white Gaussian noise, and
// Rayleigh block fading for Monte-Carlo evaluation (§VII-A).
package wireless

import (
	"errors"
	"fmt"
	"math"
)

// Config holds the physical-layer parameters. The defaults mirror §VII-A of
// the paper.
type Config struct {
	// BandwidthHz is the total downlink bandwidth B of an edge server.
	BandwidthHz float64 `json:"bandwidthHz"`
	// TransmitPowerW is the total transmit power P of an edge server.
	TransmitPowerW float64 `json:"transmitPowerW"`
	// NoisePSD is the AWGN power spectral density n0 in W/Hz.
	NoisePSD float64 `json:"noisePSD"`
	// AntennaGain is the antenna-related factor γ0 in eq. (1).
	AntennaGain float64 `json:"antennaGain"`
	// PathLossExp is the path-loss exponent α0 in eq. (1).
	PathLossExp float64 `json:"pathLossExp"`
	// ActiveProb is the probability pA that a user is active; bandwidth and
	// power are shared among the expected number of active users pA·|Km|.
	ActiveProb float64 `json:"activeProb"`
	// BackhaulBps is the constant edge-to-edge rate C_{m,m'} in bit/s.
	BackhaulBps float64 `json:"backhaulBps"`
	// CoverageRadiusM is the server coverage radius in metres.
	CoverageRadiusM float64 `json:"coverageRadiusM"`
	// MinDistanceM clamps the server-user distance to avoid the d^-α
	// singularity for co-located points.
	MinDistanceM float64 `json:"minDistanceM"`
	// NoiseFigureDB is an optional receiver noise figure (0 = ideal
	// receiver, the paper's implicit assumption).
	NoiseFigureDB float64 `json:"noiseFigureDB,omitempty"`
	// InterferenceMarginDB is an optional inter-cell interference margin
	// folded into the noise floor (0 = no interference).
	InterferenceMarginDB float64 `json:"interferenceMarginDB,omitempty"`
	// ShadowingStdDB is the optional log-normal shadowing standard
	// deviation in dB (0 = no shadowing).
	ShadowingStdDB float64 `json:"shadowingStdDB,omitempty"`
}

// DefaultConfig returns the paper's simulation parameters: B = 400 MHz,
// P = 43 dBm, n0 = -174 dBm/Hz, γ0 = 1, α0 = 4, pA = 0.5, backhaul 10 Gb/s,
// coverage radius 275 m.
func DefaultConfig() Config {
	return Config{
		BandwidthHz:     400e6,
		TransmitPowerW:  DBmToWatts(43),
		NoisePSD:        DBmToWatts(-174), // per Hz
		AntennaGain:     1,
		PathLossExp:     4,
		ActiveProb:      0.5,
		BackhaulBps:     10e9,
		CoverageRadiusM: 275,
		MinDistanceM:    1,
	}
}

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	checks := []struct {
		ok   bool
		name string
		v    float64
	}{
		{c.BandwidthHz > 0, "BandwidthHz", c.BandwidthHz},
		{c.TransmitPowerW > 0, "TransmitPowerW", c.TransmitPowerW},
		{c.NoisePSD > 0, "NoisePSD", c.NoisePSD},
		{c.AntennaGain > 0, "AntennaGain", c.AntennaGain},
		{c.PathLossExp > 0, "PathLossExp", c.PathLossExp},
		{c.ActiveProb > 0 && c.ActiveProb <= 1, "ActiveProb", c.ActiveProb},
		{c.BackhaulBps > 0, "BackhaulBps", c.BackhaulBps},
		{c.CoverageRadiusM > 0, "CoverageRadiusM", c.CoverageRadiusM},
		{c.MinDistanceM > 0, "MinDistanceM", c.MinDistanceM},
	}
	for _, ch := range checks {
		if !ch.ok || math.IsNaN(ch.v) || math.IsInf(ch.v, 0) {
			return fmt.Errorf("wireless: invalid %s = %v", ch.name, ch.v)
		}
	}
	return nil
}

// ErrNoUsers is returned when a rate is requested for a server with no
// associated users to share resources with.
var ErrNoUsers = errors.New("wireless: server has no associated users")

// DBmToWatts converts a power level in dBm to Watts.
func DBmToWatts(dbm float64) float64 {
	return math.Pow(10, (dbm-30)/10)
}

// userShare returns the per-user bandwidth and power for a server with
// numAssociated associated users: B/(pA·|Km|) and P/(pA·|Km|). The expected
// active-user count is floored at one user so a lone user never receives
// more than the server's total resources.
func (c Config) userShare(numAssociated int) (bw, pw float64, err error) {
	if numAssociated <= 0 {
		return 0, 0, ErrNoUsers
	}
	share := c.ActiveProb * float64(numAssociated)
	if share < 1 {
		share = 1
	}
	return c.BandwidthHz / share, c.TransmitPowerW / share, nil
}

// SNR returns the average signal-to-noise ratio P̄·γ0·d^-α0/(n0·B̄) for a
// user at distanceM from a server with numAssociated associated users.
func (c Config) SNR(distanceM float64, numAssociated int) (float64, error) {
	bw, pw, err := c.userShare(numAssociated)
	if err != nil {
		return 0, err
	}
	if distanceM < c.MinDistanceM {
		distanceM = c.MinDistanceM
	}
	pathLoss := c.AntennaGain * math.Pow(distanceM, -c.PathLossExp)
	return pw * pathLoss / (c.effectiveNoisePSD() * bw), nil
}

// FadedRateBps returns the instantaneous downlink rate when the Rayleigh
// fading power gain is fadingGain (|h|^2, unit mean). Evaluation draws
// fadingGain ~ Exp(1) per channel realization (§VII-A); fadingGain 1 gives
// the expected rate C̄_{m,k} of eq. (1), the Shannon rate under the average
// channel gain that placement decisions use.
func (c Config) FadedRateBps(distanceM float64, numAssociated int, fadingGain float64) (float64, error) {
	if fadingGain < 0 {
		return 0, fmt.Errorf("wireless: negative fading gain %v", fadingGain)
	}
	snr, err := c.SNR(distanceM, numAssociated)
	if err != nil {
		return 0, err
	}
	bw, _, err := c.userShare(numAssociated)
	if err != nil {
		return 0, err
	}
	return bw * math.Log2(1+snr*fadingGain), nil
}

// LinkRate caches the (distance, load)-dependent factors of FadedRateBps —
// the per-user SNR and bandwidth share — so evaluating one link under many
// fading realizations pays the d^-α path loss once and one log2 per draw.
// RateBps is bit-identical to Config.FadedRateBps on the same link.
type LinkRate struct {
	snr float64
	bw  float64
}

// LinkRate hoists the fading-independent factors of FadedRateBps for a
// user at distanceM from a server with numAssociated associated users.
func (c Config) LinkRate(distanceM float64, numAssociated int) (LinkRate, error) {
	snr, err := c.SNR(distanceM, numAssociated)
	if err != nil {
		return LinkRate{}, err
	}
	bw, _, err := c.userShare(numAssociated)
	if err != nil {
		return LinkRate{}, err
	}
	return LinkRate{snr: snr, bw: bw}, nil
}

// RateBps returns the instantaneous downlink rate of the link under the
// given Rayleigh fading power gain — the same expression, over the same
// intermediate values, as Config.FadedRateBps.
func (l LinkRate) RateBps(fadingGain float64) (float64, error) {
	if fadingGain < 0 {
		return 0, fmt.Errorf("wireless: negative fading gain %v", fadingGain)
	}
	return l.bw * math.Log2(1+l.snr*fadingGain), nil
}
