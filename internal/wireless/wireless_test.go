package wireless

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"trimcaching/internal/rng"
)

func TestDBmConversions(t *testing.T) {
	cases := []struct {
		dbm   float64
		watts float64
	}{
		{30, 1},
		{0, 0.001},
		{43, 19.952623149688797},
		{-174, 3.9810717055349695e-21},
	}
	for _, c := range cases {
		if got := DBmToWatts(c.dbm); math.Abs(got-c.watts)/c.watts > 1e-9 {
			t.Fatalf("DBmToWatts(%v) = %v, want %v", c.dbm, got, c.watts)
		}
	}
}

func TestDBmRoundTripProperty(t *testing.T) {
	f := func(dbm float64) bool {
		if math.IsNaN(dbm) || math.Abs(dbm) > 300 {
			return true
		}
		return math.Abs(10*math.Log10(DBmToWatts(dbm))+30-dbm) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.BandwidthHz = 0 },
		func(c *Config) { c.TransmitPowerW = -1 },
		func(c *Config) { c.NoisePSD = 0 },
		func(c *Config) { c.AntennaGain = math.NaN() },
		func(c *Config) { c.PathLossExp = 0 },
		func(c *Config) { c.ActiveProb = 0 },
		func(c *Config) { c.ActiveProb = 1.5 },
		func(c *Config) { c.BackhaulBps = math.Inf(1) },
		func(c *Config) { c.CoverageRadiusM = -275 },
		func(c *Config) { c.MinDistanceM = 0 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d: expected validation error", i)
		}
	}
}

func TestRateNoUsers(t *testing.T) {
	c := DefaultConfig()
	if _, err := c.FadedRateBps(100, 0, 1); !errors.Is(err, ErrNoUsers) {
		t.Fatalf("want ErrNoUsers, got %v", err)
	}
}

func TestRateDecreasesWithDistance(t *testing.T) {
	c := DefaultConfig()
	prev := math.Inf(1)
	for _, d := range []float64{10, 50, 100, 200, 275} {
		rate, err := c.FadedRateBps(d, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rate <= 0 || rate >= prev {
			t.Fatalf("rate at %vm = %v (prev %v); must be positive and decreasing", d, rate, prev)
		}
		prev = rate
	}
}

func TestRatePlausibleMagnitude(t *testing.T) {
	// With the paper's parameters a user at 100 m sharing a 10-user cell
	// should see a rate of roughly a gigabit per second; at the coverage
	// edge it should still be in the hundreds of Mb/s. These bands sanity
	// check the unit bookkeeping (Hz vs MHz, dBm vs W).
	c := DefaultConfig()
	near, err := c.FadedRateBps(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if near < 200e6 || near > 20e9 {
		t.Fatalf("rate at 100m = %v bps, outside plausible band", near)
	}
	far, err := c.FadedRateBps(275, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if far < 20e6 || far > 10e9 {
		t.Fatalf("rate at 275m = %v bps, outside plausible band", far)
	}
}

func TestRateDecreasesWithLoad(t *testing.T) {
	c := DefaultConfig()
	r5, err := c.FadedRateBps(150, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r50, err := c.FadedRateBps(150, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r50 >= r5 {
		t.Fatalf("rate must decrease with more users: 5→%v 50→%v", r5, r50)
	}
}

func TestLoneUserShareCapped(t *testing.T) {
	// With pA=0.5 and 1 user, the expected active count (0.5) is floored to
	// 1, so the user gets at most the full bandwidth, not double.
	c := DefaultConfig()
	r1, err := c.FadedRateBps(100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.FadedRateBps(100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-r2) > 1e-6 {
		t.Fatalf("1-user and 2-user (pA=0.5) shares should match: %v vs %v", r1, r2)
	}
}

func TestMinDistanceClamp(t *testing.T) {
	c := DefaultConfig()
	r0, err := c.FadedRateBps(0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.FadedRateBps(c.MinDistanceM, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(r0, 0) || math.IsNaN(r0) || r0 != r1 {
		t.Fatalf("zero distance must clamp to MinDistance: %v vs %v", r0, r1)
	}
}

func TestFadedRate(t *testing.T) {
	c := DefaultConfig()
	base, err := c.FadedRateBps(150, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := c.FadedRateBps(150, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	faded, err := c.FadedRateBps(150, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !(faded < base && base < boosted) {
		t.Fatalf("fading ordering violated: %v %v %v", faded, base, boosted)
	}
	zero, err := c.FadedRateBps(150, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Fatalf("deep fade should zero the rate, got %v", zero)
	}
	if _, err := c.FadedRateBps(150, 10, -1); err == nil {
		t.Fatal("negative fading gain must error")
	}
}

func TestFadedRateMeanNearAverageRateOrder(t *testing.T) {
	// E[log(1+snr·h)] <= log(1+snr) by Jensen; check the Monte-Carlo mean
	// lands below the average-channel rate but within a sane factor.
	c := DefaultConfig()
	src := rng.New(9)
	base, err := c.FadedRateBps(200, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		r, err := c.FadedRateBps(200, 10, src.Exp())
		if err != nil {
			t.Fatal(err)
		}
		sum += r
	}
	mean := sum / n
	if mean >= base {
		t.Fatalf("Jensen violated: faded mean %v >= base %v", mean, base)
	}
	if mean < 0.5*base {
		t.Fatalf("faded mean %v implausibly far below base %v", mean, base)
	}
}

func TestSNRPositiveProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(d float64, n uint8) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		d = math.Abs(math.Mod(d, 1e4))
		users := int(n%60) + 1
		snr, err := c.SNR(d, users)
		if err != nil {
			return false
		}
		return snr > 0 && !math.IsNaN(snr) && !math.IsInf(snr, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
