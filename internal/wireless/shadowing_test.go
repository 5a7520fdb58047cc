package wireless

import (
	"math"
	"sort"
	"testing"

	"trimcaching/internal/rng"
)

func TestNoiseFigureReducesRate(t *testing.T) {
	base := DefaultConfig()
	lifted := base
	lifted.NoiseFigureDB = 9
	rBase, err := base.FadedRateBps(150, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rLifted, err := lifted.FadedRateBps(150, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rLifted >= rBase {
		t.Fatalf("noise figure did not reduce rate: %v vs %v", rLifted, rBase)
	}
	// 9 dB noise lift ≈ 8x SNR drop ≈ log2(8) = 3 bits/s/Hz loss in the
	// high-SNR regime.
	bw := base.BandwidthHz / (base.ActiveProb * 10)
	lossPerHz := (rBase - rLifted) / bw
	if lossPerHz < 2.5 || lossPerHz > 3.5 {
		t.Fatalf("9 dB lift cost %.2f bits/s/Hz, want ~3", lossPerHz)
	}
}

func TestInterferenceMarginComposesWithNoiseFigure(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	a.NoiseFigureDB, a.InterferenceMarginDB = 5, 4
	b.NoiseFigureDB = 9
	ra, err := a.FadedRateBps(150, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.FadedRateBps(150, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra-rb)/rb > 1e-12 {
		t.Fatalf("5+4 dB should equal 9 dB: %v vs %v", ra, rb)
	}
}

func TestZeroLiftIsNoop(t *testing.T) {
	c := DefaultConfig()
	if c.effectiveNoisePSD() != c.NoisePSD {
		t.Fatal("zero lift changed the noise PSD")
	}
}

func TestShadowGainDisabled(t *testing.T) {
	c := DefaultConfig()
	src := rng.New(1)
	for i := 0; i < 100; i++ {
		if g := c.SampleShadowGain(src); g != 1 {
			t.Fatalf("disabled shadowing drew gain %v", g)
		}
	}
}

func TestShadowGainStatistics(t *testing.T) {
	c := DefaultConfig().WithShadowing(8)
	src := rng.New(2)
	const n = 40000
	gains := make([]float64, n)
	for i := range gains {
		g := c.SampleShadowGain(src)
		if g <= 0 {
			t.Fatalf("non-positive shadow gain %v", g)
		}
		gains[i] = g
	}
	// Median must be ~1 (0 dB), and the dB values must have std ~8.
	sort.Float64s(gains)
	median := gains[n/2]
	if median < 0.9 || median > 1.1 {
		t.Fatalf("shadow gain median %v, want ~1", median)
	}
	var sumDB, sumDB2 float64
	for _, g := range gains {
		db := 10 * math.Log10(g)
		sumDB += db
		sumDB2 += db * db
	}
	meanDB := sumDB / n
	stdDB := math.Sqrt(sumDB2/n - meanDB*meanDB)
	if math.Abs(meanDB) > 0.2 {
		t.Fatalf("shadowing mean %v dB, want ~0", meanDB)
	}
	if math.Abs(stdDB-8) > 0.3 {
		t.Fatalf("shadowing std %v dB, want ~8", stdDB)
	}
}

func TestSampleShadowGainsMatrix(t *testing.T) {
	c := DefaultConfig().WithShadowing(6)
	gains, err := c.SampleShadowGains(4, 7, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(gains) != 4 || len(gains[0]) != 7 {
		t.Fatalf("dims %dx%d", len(gains), len(gains[0]))
	}
	if _, err := c.SampleShadowGains(0, 7, rng.New(3)); err == nil {
		t.Fatal("zero dims must error")
	}
}

func TestShadowedRateComposesWithFading(t *testing.T) {
	c := DefaultConfig().WithShadowing(8)
	src := rng.New(4)
	shadow := c.SampleShadowGain(src)
	// Shadowing and Rayleigh fading compose multiplicatively on the power
	// gain; the composed rate must equal the rate at the product gain.
	fade := src.Exp()
	composed, err := c.FadedRateBps(150, 10, shadow*fade)
	if err != nil {
		t.Fatal(err)
	}
	if composed < 0 {
		t.Fatalf("composed rate %v", composed)
	}
}
