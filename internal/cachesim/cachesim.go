// Package cachesim is a request-level serving simulator (an extension
// beyond the paper's placement optimizer): it replays a Poisson stream of
// model-download requests against a placement and a wireless instance,
// routes each request per the paper's two-case service logic (§III-A) with
// a cloud fallback, and reports hit ratios and latency percentiles. It
// exercises placements as a running system rather than as an objective
// value.
//
// Two simulators ship: Serve is the closed-form replay (each download gets
// its full link rate), and ServeTrace / ServeSession is the event-driven
// simulator, where downloads processor-share each server's spectrum so
// latency grows with instantaneous load. ServeSession owns reusable
// scratch for serving trace windows checkpoint after checkpoint — the
// serving-side counterpart of sim.FadingSession, and the measurement
// kernel of the dynamics engine's trace-driven track. Both simulators are
// deterministic in their rng.Source.
package cachesim

import (
	"fmt"
	"sort"
	"time"

	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/stats"
)

// Config parameterizes the request replay.
type Config struct {
	// RequestsPerUserPerHour is the Poisson arrival rate per user.
	RequestsPerUserPerHour float64
	// DurationS is the simulated horizon in seconds.
	DurationS float64
	// CloudRateBps is the effective per-download rate from the cloud
	// (backbone + last mile) used for cache misses. The paper motivates
	// edge caching with cloud downloads being far slower than edge.
	CloudRateBps float64
	// Fading applies an independent Rayleigh gain per request; otherwise
	// average-channel rates are used.
	Fading bool
}

// DefaultConfig returns a moderate load: 12 requests/user/hour over one
// simulated hour with a 200 Mb/s cloud path and per-request fading.
func DefaultConfig() Config {
	return Config{
		RequestsPerUserPerHour: 12,
		DurationS:              3600,
		CloudRateBps:           200e6,
		Fading:                 true,
	}
}

// Validate reports the first invalid field, if any. A NaN or infinite rate
// or duration is invalid: Poisson would draw no request from it.
func (c Config) Validate() error {
	if !positiveFinite(c.RequestsPerUserPerHour) {
		return fmt.Errorf("cachesim: RequestsPerUserPerHour must be positive and finite, got %v", c.RequestsPerUserPerHour)
	}
	if !positiveFinite(c.DurationS) {
		return fmt.Errorf("cachesim: DurationS must be positive and finite, got %v", c.DurationS)
	}
	if !positiveFinite(c.CloudRateBps) {
		return fmt.Errorf("cachesim: CloudRateBps must be positive and finite, got %v", c.CloudRateBps)
	}
	return nil
}

// Route classifies how a request was served.
type Route int

// Service routes, in decreasing preference order.
const (
	RouteDirect Route = iota + 1 // downloaded from a covering edge server
	RouteRelay                   // fetched over the backhaul to a covering server
	RouteCloud                   // cache miss: fetched from the cloud
	RouteFailed                  // user covered by no server
)

// String returns the route name.
func (r Route) String() string {
	switch r {
	case RouteDirect:
		return "direct"
	case RouteRelay:
		return "relay"
	case RouteCloud:
		return "cloud"
	case RouteFailed:
		return "failed"
	default:
		return fmt.Sprintf("route(%d)", int(r))
	}
}

// Result summarizes a serving run.
type Result struct {
	Requests    int           `json:"requests"`
	Direct      int           `json:"direct"`
	Relay       int           `json:"relay"`
	Cloud       int           `json:"cloud"`
	Failed      int           `json:"failed"`
	QoSHits     int           `json:"qosHits"`     // served within the user's deadline from the edge
	HitRatio    float64       `json:"hitRatio"`    // QoSHits / Requests
	MeanLatency time.Duration `json:"meanLatency"` // over completed downloads
	P50Latency  time.Duration `json:"p50Latency"`
	P95Latency  time.Duration `json:"p95Latency"`
	P99Latency  time.Duration `json:"p99Latency"`
}

// Serve replays a Poisson request trace against the placement.
func Serve(ins *scenario.Instance, p *placement.Placement, cfg Config, src *rng.Source) (Result, error) {
	var res Result
	if ins == nil || p == nil {
		return res, fmt.Errorf("cachesim: instance and placement are required")
	}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	if p.NumServers() != ins.NumServers() || p.NumModels() != ins.NumModels() {
		return res, fmt.Errorf("cachesim: placement dims %dx%d, instance %dx%d",
			p.NumServers(), p.NumModels(), ins.NumServers(), ins.NumModels())
	}

	work := ins.Workload()
	meanPerUser := cfg.RequestsPerUserPerHour * cfg.DurationS / 3600

	var latencies []float64
	probRow := make([]float64, ins.NumModels())
	for k := 0; k < ins.NumUsers(); k++ {
		n := src.Poisson(meanPerUser)
		if n == 0 {
			continue
		}
		for i := range probRow {
			probRow[i] = work.Prob(k, i)
		}
		for r := 0; r < n; r++ {
			i := src.Categorical(probRow)
			res.Requests++
			route, latS := serveOne(ins, p, cfg, k, i, src)
			switch route {
			case RouteDirect:
				res.Direct++
			case RouteRelay:
				res.Relay++
			case RouteCloud:
				res.Cloud++
			case RouteFailed:
				res.Failed++
			}
			if route == RouteFailed {
				continue
			}
			latencies = append(latencies, latS)
			if (route == RouteDirect || route == RouteRelay) && latS <= work.DeadlineS(k, i) {
				res.QoSHits++
			}
		}
	}

	if res.Requests > 0 {
		res.HitRatio = float64(res.QoSHits) / float64(res.Requests)
	}
	if len(latencies) > 0 {
		res.MeanLatency = secToDur(stats.Mean(latencies))
		sort.Float64s(latencies)
		res.P50Latency = secToDur(stats.Quantile(latencies, 0.50))
		res.P95Latency = secToDur(stats.Quantile(latencies, 0.95))
		res.P99Latency = secToDur(stats.Quantile(latencies, 0.99))
	}
	return res, nil
}

// serveOne routes a single request per §III-A: prefer direct download from
// the best covering caching server; otherwise relay from any caching server
// over the backhaul; otherwise fall back to the cloud.
func serveOne(ins *scenario.Instance, p *placement.Placement, cfg Config, k, i int, src *rng.Source) (Route, float64) {
	topo := ins.Topology()
	wcfg := ins.Wireless()
	covering := topo.ServersCovering(k)
	if len(covering) == 0 {
		return RouteFailed, 0
	}
	sizeBits := 8 * float64(ins.Library().ModelSize(i))
	infer := ins.Workload().InferS(k, i)

	// Instantaneous downlink rates toward user k.
	rate := func(m int) float64 {
		gain := 1.0
		if cfg.Fading {
			gain = src.Exp()
		}
		r, err := wcfg.FadedRateBps(topo.Distance(m, k), topo.Load(m), gain)
		if err != nil {
			return 0
		}
		return r
	}

	bestDirect := 0.0
	bestAny := 0.0
	for _, m := range covering {
		r := rate(m)
		if r > bestAny {
			bestAny = r
		}
		if p.Has(m, i) && r > bestDirect {
			bestDirect = r
		}
	}
	if bestDirect > 0 {
		return RouteDirect, sizeBits/bestDirect + infer
	}
	if bestAny <= 0 {
		return RouteFailed, 0
	}
	// Any server caching the model can relay it: one word test on the
	// placement's server column instead of an M-loop.
	if p.Servers(i).Any() {
		return RouteRelay, sizeBits/wcfg.BackhaulBps + sizeBits/bestAny + infer
	}
	return RouteCloud, sizeBits/cfg.CloudRateBps + sizeBits/bestAny + infer
}

func secToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
