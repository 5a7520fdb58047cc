package cachesim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/stats"
	"trimcaching/internal/topology"
	"trimcaching/internal/trace"
	"trimcaching/internal/wireless"
)

// EventConfig parameterizes the event-driven serving simulator.
type EventConfig struct {
	// CloudRateBps is the per-download rate of the cloud fallback path.
	CloudRateBps float64
	// Fading draws a Rayleigh gain per download; otherwise average-channel
	// spectral efficiencies are used.
	Fading bool
}

// DefaultEventConfig returns a 200 Mb/s cloud path with per-download fading.
func DefaultEventConfig() EventConfig {
	return EventConfig{CloudRateBps: 200e6, Fading: true}
}

// Validate reports the first invalid field, if any.
func (c EventConfig) Validate() error {
	if !positiveFinite(c.CloudRateBps) {
		return fmt.Errorf("cachesim: CloudRateBps must be positive and finite, got %v", c.CloudRateBps)
	}
	return nil
}

// positiveFinite reports whether v is positive and finite; NaN is not.
func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// EventResult summarizes an event-driven run. Unlike Result (the closed-form
// replay), downloads here contend for each server's spectrum: a server's
// bandwidth is processor-shared equally among its concurrently active
// downloads, so latency grows with instantaneous load.
type EventResult struct {
	Requests    int           `json:"requests"`
	Direct      int           `json:"direct"`
	Relay       int           `json:"relay"`
	Cloud       int           `json:"cloud"`
	Failed      int           `json:"failed"`
	QoSHits     int           `json:"qosHits"`
	HitRatio    float64       `json:"hitRatio"`
	MeanLatency time.Duration `json:"meanLatency"`
	P50Latency  time.Duration `json:"p50Latency"`
	P95Latency  time.Duration `json:"p95Latency"`
	P99Latency  time.Duration `json:"p99Latency"`
	// PeakConcurrency is the maximum number of simultaneous downloads
	// observed on any single server.
	PeakConcurrency int `json:"peakConcurrency"`
}

// flow is one active radio download at a server.
type flow struct {
	remainingBits float64
	// seBitsPerHz is the flow's spectral efficiency; its instantaneous rate
	// is seBitsPerHz * B / n with n flows active at the server.
	seBitsPerHz float64
	reqIdx      int
}

// serverState tracks a server's active processor-shared downloads. Flows
// are referenced by index into the session's flow pool rather than by
// pointer, so pool growth never invalidates a server's list.
type serverState struct {
	flows []int32
}

// event is a simulator event: a request arrival or a radio-phase start
// (after a backhaul or cloud prefetch hop).
type event struct {
	timeS  float64
	kind   eventKind
	reqIdx int
	seq    int // tie-breaker for determinism
}

type eventKind int

const (
	evArrival    eventKind = iota + 1 // request enters the system
	evRadioStart                      // prefetch done; radio download begins
)

// evLess orders events by (timeS, seq). seq is unique per push, so this is
// a strict total order: the pop sequence is a property of the event set, not
// of the heap implementation, which is what lets the hand-rolled heap below
// replace container/heap bit for bit.
func evLess(a, b event) bool {
	if a.timeS != b.timeS {
		return a.timeS < b.timeS
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap of events ordered by evLess.
// container/heap funnels every Push/Pop through an `any` box — one
// interface allocation per event on the simulator's hottest edge — so, like
// the lazy-greedy candidate heap, the sift loops are written against the
// concrete type and move values with plain copies.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return top
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && evLess(h[c+1], h[c]) {
			c++
		}
		if !evLess(h[c], ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// reqState tracks a request through the simulator.
type reqState struct {
	route    Route
	server   int // radio server
	arrival  float64
	finished float64
	se       float64 // spectral efficiency of the radio hop
	done     bool
}

// ServeSession owns the scratch one event-driven serving run needs — the
// per-request states, per-server flow lists, event heap, and latency
// buffer — so repeated Serve calls perform no steady-state allocation
// beyond growth to the largest trace seen. The session is sized by instance
// dimensions, not bound to one instance: a session built at t = 0 serves
// every later checkpoint of a mobility timeline, whether the instance was
// delta-updated in place or rebuilt from scratch. It is how the dynamics
// engine's trace-driven measurement track amortizes serving across
// checkpoints, mirroring sim.FadingSession on the Monte-Carlo track.
//
// A session is not safe for concurrent use.
type ServeSession struct {
	cfg                             EventConfig
	numServers, numUsers, numModels int

	reqs      []reqState
	servers   []serverState
	flowPool  []flow
	h         eventHeap
	latencies []float64

	// Per-run state for the serve hot path. The event loop runs through
	// methods on the session rather than closures so the captured state
	// lives in these fields, not in per-Serve heap-allocated closure
	// environments.
	ins  *scenario.Instance
	p    *placement.Placement
	tr   *trace.Trace
	src  *rng.Source
	topo *topology.Topology
	wcfg wireless.Config
	now  float64
	seq  int
	res  EventResult
}

// NewServeSession allocates a session for instances with ins's dimensions.
func NewServeSession(ins *scenario.Instance, cfg EventConfig) (*ServeSession, error) {
	if ins == nil {
		return nil, fmt.Errorf("cachesim: instance is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ServeSession{
		cfg:        cfg,
		numServers: ins.NumServers(),
		numUsers:   ins.NumUsers(),
		numModels:  ins.NumModels(),
		servers:    make([]serverState, ins.NumServers()),
	}, nil
}

// ServeTrace runs the event-driven simulation of a request trace against a
// placement. Each server's bandwidth is shared equally among its active
// downloads (processor sharing); relayed and cloud downloads first traverse
// a fixed-rate prefetch hop, then join the radio queue of the user's best
// covering server. One-shot convenience over NewServeSession + Serve; loops
// that serve repeatedly over same-sized instances should hold a session.
func ServeTrace(ins *scenario.Instance, p *placement.Placement, tr *trace.Trace, cfg EventConfig, src *rng.Source) (EventResult, error) {
	if ins == nil {
		return EventResult{}, fmt.Errorf("cachesim: instance, placement, and trace are required")
	}
	s, err := NewServeSession(ins, cfg)
	if err != nil {
		return EventResult{}, err
	}
	return s.Serve(ins, p, tr, src)
}

// Latencies returns the per-request end-to-end latencies (seconds) of the
// most recent Serve call, sorted ascending. The slice aliases session
// scratch and is only valid until the next Serve; callers that merge
// latency buffers across sessions (the sharded engine's exact global
// quantiles) must treat it as read-only.
func (s *ServeSession) Latencies() []float64 { return s.latencies }

// MemoryBytes returns the approximate heap footprint of the session's
// retained scratch, for memory-accounting reports.
func (s *ServeSession) MemoryBytes() int64 {
	bytes := int64(cap(s.reqs)) * int64(unsafeSizeofReqState)
	bytes += int64(cap(s.flowPool)) * int64(unsafeSizeofFlow)
	bytes += int64(cap(s.h)) * int64(unsafeSizeofEvent)
	bytes += int64(cap(s.latencies)) * 8
	for m := range s.servers {
		bytes += int64(cap(s.servers[m].flows)) * 4
	}
	return bytes
}

// Struct sizes for MemoryBytes, kept as constants so the accounting needs
// no unsafe import. Guarded by a test against the real unsafe.Sizeof.
const (
	unsafeSizeofReqState = 48
	unsafeSizeofFlow     = 24
	unsafeSizeofEvent    = 32
)

// Serve replays the trace against the placement on the given instance,
// which must match the session's dimensions. The run is deterministic in
// (instance, placement, trace, src) and independent of previous Serve
// calls: all scratch is reset, and fading gains are drawn from src in
// event order.
func (s *ServeSession) Serve(ins *scenario.Instance, p *placement.Placement, tr *trace.Trace, src *rng.Source) (EventResult, error) {
	if ins == nil || p == nil || tr == nil {
		return EventResult{}, fmt.Errorf("cachesim: instance, placement, and trace are required")
	}
	if ins.NumServers() != s.numServers || ins.NumUsers() != s.numUsers || ins.NumModels() != s.numModels {
		return EventResult{}, fmt.Errorf("cachesim: instance dims %dx%dx%d, session %dx%dx%d",
			ins.NumServers(), ins.NumUsers(), ins.NumModels(), s.numServers, s.numUsers, s.numModels)
	}
	if p.NumServers() != ins.NumServers() || p.NumModels() != ins.NumModels() {
		return EventResult{}, fmt.Errorf("cachesim: placement dims %dx%d, instance %dx%d",
			p.NumServers(), p.NumModels(), ins.NumServers(), ins.NumModels())
	}
	if err := tr.Validate(ins.NumUsers(), ins.NumModels()); err != nil {
		return EventResult{}, err
	}

	s.ins, s.p, s.tr, s.src = ins, p, tr, src
	s.topo = ins.Topology()
	s.wcfg = ins.Wireless()
	s.now = 0
	s.seq = 0
	s.res = EventResult{}

	if cap(s.reqs) < len(tr.Requests) {
		s.reqs = make([]reqState, len(tr.Requests))
	}
	s.reqs = s.reqs[:len(tr.Requests)]
	for idx := range s.reqs {
		s.reqs[idx] = reqState{}
	}
	for m := range s.servers {
		s.servers[m].flows = s.servers[m].flows[:0]
	}
	// Each request opens at most one flow; pre-sizing the pool makes the
	// first run over a given trace size allocation-free too.
	if cap(s.flowPool) < len(tr.Requests) {
		s.flowPool = make([]flow, 0, len(tr.Requests))
	}
	s.flowPool = s.flowPool[:0]
	s.h = s.h[:0]
	s.latencies = s.latencies[:0]

	for idx, r := range tr.Requests {
		s.reqs[idx].arrival = r.TimeS
		s.pushEvent(r.TimeS, evArrival, idx)
	}

	for len(s.h) > 0 {
		ev := s.h.pop()
		s.advance(ev.timeS)
		switch ev.kind {
		case evArrival:
			s.arrive(ev.reqIdx, ev.timeS)
		case evRadioStart:
			s.startRadio(ev.reqIdx)
		}
	}
	// Drain remaining flows.
	s.advance(math.Inf(1))

	res := s.res
	work := ins.Workload()
	for idx := range s.reqs {
		r := &s.reqs[idx]
		if !r.done {
			continue
		}
		k := tr.Requests[idx].User
		i := tr.Requests[idx].Model
		e2e := r.finished - r.arrival + work.InferS(k, i)
		if (r.route == RouteDirect || r.route == RouteRelay) && e2e <= work.DeadlineS(k, i) {
			res.QoSHits++
		}
	}
	if res.Requests > 0 {
		res.HitRatio = float64(res.QoSHits) / float64(res.Requests)
	}
	if len(s.latencies) > 0 {
		res.MeanLatency = secToDur(stats.Mean(s.latencies))
		slices.Sort(s.latencies)
		res.P50Latency = secToDur(stats.QuantileSorted(s.latencies, 0.50))
		res.P95Latency = secToDur(stats.QuantileSorted(s.latencies, 0.95))
		res.P99Latency = secToDur(stats.QuantileSorted(s.latencies, 0.99))
	}
	// Release the per-run references; the sorted latency buffer is retained
	// for Latencies() until the next Serve.
	s.ins, s.p, s.tr, s.src, s.topo = nil, nil, nil, nil, nil
	return res, nil
}

// pushEvent enqueues an event with the next deterministic tie-break seq.
func (s *ServeSession) pushEvent(t float64, kind eventKind, idx int) {
	s.h.push(event{timeS: t, kind: kind, reqIdx: idx, seq: s.seq})
	s.seq++
}

// spectralEff computes a download's bits/s/Hz on the m→k link, with an
// optional per-download Rayleigh draw.
func (s *ServeSession) spectralEff(m, k int) float64 {
	gain := 1.0
	if s.cfg.Fading {
		gain = s.src.Exp()
	}
	snr, err := s.wcfg.SNR(s.topo.Distance(m, k), s.topo.Load(m))
	if err != nil {
		return 0
	}
	return math.Log2(1 + snr*gain)
}

// arrive routes one request: direct from the best covering cache, else a
// backhaul relay or cloud prefetch hop ahead of the radio download.
func (s *ServeSession) arrive(idx int, at float64) {
	k := s.tr.Requests[idx].User
	i := s.tr.Requests[idx].Model
	s.res.Requests++
	covering := s.topo.ServersCovering(k)
	if len(covering) == 0 {
		s.reqs[idx].route = RouteFailed
		s.res.Failed++
		return
	}
	// Pick the best covering server by spectral efficiency; prefer one that
	// caches the model (direct).
	bestSE, bestM := -1.0, -1
	bestCachedSE, bestCachedM := -1.0, -1
	for _, m := range covering {
		se := s.spectralEff(m, k)
		if se > bestSE {
			bestSE, bestM = se, m
		}
		if s.p.Has(m, i) && se > bestCachedSE {
			bestCachedSE, bestCachedM = se, m
		}
	}
	r := &s.reqs[idx]
	switch {
	case bestCachedM >= 0:
		r.route = RouteDirect
		r.server = bestCachedM
		r.se = bestCachedSE
		s.res.Direct++
		s.startRadio(idx)
	case s.p.Servers(i).Any():
		r.route = RouteRelay
		r.server = bestM
		r.se = bestSE
		s.res.Relay++
		prefetch := 8 * float64(s.ins.Library().ModelSize(i)) / s.wcfg.BackhaulBps
		s.pushEvent(at+prefetch, evRadioStart, idx)
	default:
		r.route = RouteCloud
		r.server = bestM
		r.se = bestSE
		s.res.Cloud++
		prefetch := 8 * float64(s.ins.Library().ModelSize(i)) / s.cfg.CloudRateBps
		s.pushEvent(at+prefetch, evRadioStart, idx)
	}
}

// startRadio opens the radio flow for a request at its chosen server.
func (s *ServeSession) startRadio(idx int) {
	r := &s.reqs[idx]
	i := s.tr.Requests[idx].Model
	s.flowPool = append(s.flowPool, flow{
		remainingBits: 8 * float64(s.ins.Library().ModelSize(i)),
		seBitsPerHz:   r.se,
		reqIdx:        idx,
	})
	st := &s.servers[r.server]
	st.flows = append(st.flows, int32(len(s.flowPool)-1))
	if len(st.flows) > s.res.PeakConcurrency {
		s.res.PeakConcurrency = len(st.flows)
	}
}

// complete finishes the fi-th flow of server m at time `at`, preserving the
// order of the remaining flows (the completion scan breaks rate ties by
// list position).
func (s *ServeSession) complete(m, fi int, at float64) {
	st := &s.servers[m]
	f := &s.flowPool[st.flows[fi]]
	st.flows = append(st.flows[:fi], st.flows[fi+1:]...)
	r := &s.reqs[f.reqIdx]
	r.finished = at
	r.done = true
	k := s.tr.Requests[f.reqIdx].User
	i := s.tr.Requests[f.reqIdx].Model
	lat := at - r.arrival + s.ins.Workload().InferS(k, i)
	s.latencies = append(s.latencies, lat)
}

// advance progresses all active flows from now to target, completing flows
// as they drain. Flow completions within the window are processed in time
// order per server.
func (s *ServeSession) advance(target float64) {
	for s.now < target {
		// Find the earliest flow completion across servers before target.
		bestT := target
		bestM, bestF := -1, -1
		for m := range s.servers {
			fl := s.servers[m].flows
			n := float64(len(fl))
			if n == 0 {
				continue
			}
			perFlowBw := s.wcfg.BandwidthHz / n
			for fi, id := range fl {
				f := &s.flowPool[id]
				rate := f.seBitsPerHz * perFlowBw
				if rate <= 0 {
					continue
				}
				t := s.now + f.remainingBits/rate
				if t < bestT {
					bestT, bestM, bestF = t, m, fi
				}
			}
		}
		// Drain all flows by the elapsed window.
		dt := bestT - s.now
		for m := range s.servers {
			fl := s.servers[m].flows
			n := float64(len(fl))
			if n == 0 {
				continue
			}
			perFlowBw := s.wcfg.BandwidthHz / n
			for _, id := range fl {
				f := &s.flowPool[id]
				f.remainingBits -= f.seBitsPerHz * perFlowBw * dt
				if f.remainingBits < 0 {
					f.remainingBits = 0
				}
			}
		}
		s.now = bestT
		if bestM >= 0 {
			s.complete(bestM, bestF, s.now)
		}
	}
}
