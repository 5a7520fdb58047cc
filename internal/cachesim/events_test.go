package cachesim

import (
	"math"
	"testing"

	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/trace"
)

func testTrace(t *testing.T, ins interface {
	NumUsers() int
	NumModels() int
}, tr *trace.Trace) {
	t.Helper()
	if err := tr.Validate(ins.NumUsers(), ins.NumModels()); err != nil {
		t.Fatal(err)
	}
}

func TestServeTraceValidation(t *testing.T) {
	ins, _ := buildServing(t, 30)
	p := placement.NewPlacement(ins.NumServers(), ins.NumModels())
	tr, err := trace.Generate(ins.Workload(), 10, 600, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeTrace(nil, p, tr, DefaultEventConfig(), rng.New(2)); err == nil {
		t.Fatal("nil instance must error")
	}
	if _, err := ServeTrace(ins, nil, tr, DefaultEventConfig(), rng.New(2)); err == nil {
		t.Fatal("nil placement must error")
	}
	if _, err := ServeTrace(ins, p, nil, DefaultEventConfig(), rng.New(2)); err == nil {
		t.Fatal("nil trace must error")
	}
	for _, cloudBps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad := DefaultEventConfig()
		bad.CloudRateBps = cloudBps
		if _, err := ServeTrace(ins, p, tr, bad, rng.New(2)); err == nil {
			t.Fatalf("CloudRateBps %v must error", cloudBps)
		}
	}
	wrong := placement.NewPlacement(1, 1)
	if _, err := ServeTrace(ins, wrong, tr, DefaultEventConfig(), rng.New(2)); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestServeTraceConservation(t *testing.T) {
	ins, eval := buildServing(t, 31)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<30)
	p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(ins.Workload(), 20, 1800, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	testTrace(t, ins, tr)
	res, err := ServeTrace(ins, p, tr, DefaultEventConfig(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(tr.Requests) {
		t.Fatalf("requests %d != trace %d", res.Requests, len(tr.Requests))
	}
	if res.Direct+res.Relay+res.Cloud+res.Failed != res.Requests {
		t.Fatalf("route accounting broken: %+v", res)
	}
	if res.QoSHits > res.Direct+res.Relay {
		t.Fatalf("more hits than edge downloads: %+v", res)
	}
	if res.PeakConcurrency < 1 {
		t.Fatalf("no concurrency observed: %+v", res)
	}
	if res.P50Latency <= 0 || res.P50Latency > res.P99Latency {
		t.Fatalf("latency stats broken: %+v", res)
	}
}

func TestServeTraceLoneDownloadRate(t *testing.T) {
	// With a single request and no fading, the download must complete at
	// the full-bandwidth rate: latency = bits/(log2(1+SNR)*B) + inference.
	ins, _ := buildServing(t, 32)
	topo := ins.Topology()
	user := -1
	for k := 0; k < ins.NumUsers() && user < 0; k++ {
		if len(topo.ServersCovering(k)) > 0 {
			user = k
		}
	}
	if user < 0 {
		t.Fatal("no covered user in this draw")
	}
	// Cache model 0 on one server covering the user, so it is the only
	// direct source.
	const model = 0
	server := topo.ServersCovering(user)[0]
	p := placement.NewPlacement(ins.NumServers(), ins.NumModels())
	p.Set(server, model)
	tr := &trace.Trace{DurationS: 100, Requests: []trace.Request{{TimeS: 1, User: user, Model: model}}}
	cfg := DefaultEventConfig()
	cfg.Fading = false
	res, err := ServeTrace(ins, p, tr, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Direct != 1 {
		t.Fatalf("expected one direct download: %+v", res)
	}
	w := ins.Wireless()
	snr, err := w.SNR(topo.Distance(server, user), topo.Load(server))
	if err != nil {
		t.Fatal(err)
	}
	bits := 8 * float64(ins.Library().ModelSize(model))
	want := bits/(math.Log2(1+snr)*w.BandwidthHz) + ins.Workload().InferS(user, model)
	// MeanLatency is a time.Duration, so it is exact to a nanosecond only.
	if got := res.MeanLatency.Seconds(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("lone download latency %vs, want %vs", got, want)
	}
	// A lone flow gets the whole 400 MHz: even a ResNet-50 finishes well
	// under a second of airtime plus inference.
	if res.MeanLatency.Seconds() > 1.0 {
		t.Fatalf("lone download took %v", res.MeanLatency)
	}
}

func TestServeTraceContentionSlowsDownloads(t *testing.T) {
	// Identical trace at 1x vs duplicated requests: higher instantaneous
	// load must not reduce latency percentiles.
	ins, eval := buildServing(t, 33)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<31)
	p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	light, err := trace.Generate(ins.Workload(), 10, 900, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	// Heavy: every request duplicated (two users ask at the same instant).
	heavy := &trace.Trace{DurationS: light.DurationS}
	for _, r := range light.Requests {
		heavy.Requests = append(heavy.Requests, r, r)
	}
	cfg := DefaultEventConfig()
	cfg.Fading = false
	resLight, err := ServeTrace(ins, p, light, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	resHeavy, err := ServeTrace(ins, p, heavy, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if resHeavy.PeakConcurrency < resLight.PeakConcurrency {
		t.Fatalf("duplicated trace has lower concurrency: %d vs %d",
			resHeavy.PeakConcurrency, resLight.PeakConcurrency)
	}
	if resHeavy.MeanLatency < resLight.MeanLatency {
		t.Fatalf("contention reduced mean latency: %v vs %v",
			resHeavy.MeanLatency, resLight.MeanLatency)
	}
}

func TestServeTraceEmptyPlacementUsesCloud(t *testing.T) {
	ins, _ := buildServing(t, 34)
	p := placement.NewPlacement(ins.NumServers(), ins.NumModels())
	tr, err := trace.Generate(ins.Workload(), 10, 600, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ServeTrace(ins, p, tr, DefaultEventConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Direct != 0 || res.Relay != 0 {
		t.Fatalf("empty placement served from edge: %+v", res)
	}
	if res.QoSHits != 0 {
		t.Fatalf("cloud downloads counted as QoS hits: %+v", res)
	}
	if res.Cloud == 0 {
		t.Fatalf("no cloud fallbacks: %+v", res)
	}
}

func TestServeTraceDeterministic(t *testing.T) {
	ins, eval := buildServing(t, 35)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<30)
	p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(ins.Workload(), 15, 900, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ServeTrace(ins, p, tr, DefaultEventConfig(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServeTrace(ins, p, tr, DefaultEventConfig(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}
