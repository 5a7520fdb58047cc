package main

import (
	"fmt"
	"math"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/experiments"
	"trimcaching/internal/faults"
	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/memprof"
	"trimcaching/internal/modellib"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/shard"
	"trimcaching/internal/sim"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	demand "trimcaching/internal/workload"
)

// Constants shared by the engine workloads: a checkpoint every 10 minutes
// of 5 s mobility slots (§VII-E), re-placement when the measured hit ratio
// drops 5% below its post-placement baseline, and one worker everywhere
// (see run).
const (
	checkpointMin = 10
	slotS         = 5.0
	degradation   = 0.05
	workers       = 1
)

// workload is one benchmark workload: a deployment drawn from the seed and
// a closed-loop operation on it.
type workload struct {
	name   string
	why    string
	params any // recorded in the report
	setup  func(seed uint64, tr *tracer) (runner, error)
}

// quality is one op's contribution to the hit_ratio metric: a weighted
// hit count (num) over its weight (den).
type quality struct{ num, den float64 }

// runner drives one built deployment.
type runner interface {
	// op runs operation i; op 0 is the untimed warm-up.
	op(i int) (quality, error)
	// check verifies op i's outputs. It is not timed.
	check(i int) error
	// finish runs the end-of-run checks. It is not timed.
	finish() error
	// footprint returns the deployment's owned heap bytes and its users.
	footprint() (memprof.Footprint, int)
	// layers sets the workload's own per-layer counters, averaged over
	// the ops timed ops.
	layers(m map[string]float64, ops int)
}

// allWorkloads is the benchmark at its defined operating points.
func allWorkloads() []workload {
	return []workload{
		placePaper(placeParams{
			LibrarySeed:   1,
			PoolPerFamily: 100,
			Models:        30,
			Servers:       10,
			Users:         30,
			CapacityBytes: 1_000_000_000,
			BackhaulBps:   1e9,
			Epsilon:       0.1,
			MaxCombos:     1 << 20,
			Realizations:  1000,
		}),
		mobilityFading(engineDeployment),
		serveSharded(serveParams{Deployment: engineDeployment, Shards: 4, RequestsPerUserPerHour: 4}),
		faultChurn(faultParams{
			Deployment: loraDeployment{
				Servers:          36,
				Users:            500,
				Models:           1000,
				FoundationParams: 1_000_000_000,
				ActiveProb:       0.02,
				BackhaulBps:      1e8,
				CapacityBytes:    2_060_000_000,
				Realizations:     4,
			},
			PDegrade: 0.1,
			PFail:    0.05,
			PRecover: 0.25,
			MinBytes: 2_010_000_000,
			MaxBytes: 2_050_000_000,
		}),
	}
}

// engineDeployment is the population-scale LoRA deployment mobility-fading
// and serve-sharded share.
var engineDeployment = loraDeployment{
	Servers:          16,
	Users:            6000,
	Models:           250,
	FoundationParams: 1_000_000_000,
	ActiveProb:       0.04,
	BackhaulBps:      1e9,
	CapacityBytes:    3 << 30,
	Realizations:     4,
}

// ---- place-paper ---------------------------------------------------------

// placeParams is the paper's §VII-A special-case evaluation point.
type placeParams struct {
	// LibrarySeed draws the library, fixed across runs as in the paper,
	// which averages each point over topologies for one library; -seed
	// draws the topologies and fading.
	LibrarySeed   uint64  `json:"library_seed"`
	PoolPerFamily int     `json:"pool_per_family"`
	Models        int     `json:"models"`
	Servers       int     `json:"servers"`
	Users         int     `json:"users"`
	CapacityBytes int64   `json:"capacity_bytes"`
	BackhaulBps   float64 `json:"backhaul_bps"`
	Epsilon       float64 `json:"epsilon"`
	MaxCombos     int     `json:"max_combos"`
	Realizations  int     `json:"realizations"`
}

func placePaper(p placeParams) workload {
	return workload{
		name:   "place-paper",
		why:    "the paper's own evaluation: Spec, Gen and Independent placement plus the fading kernel on fresh topologies, with no engine layers",
		params: p,
		setup: func(seed uint64, tr *tracer) (runner, error) {
			return newPlaceRunner(p, seed, tr)
		},
	}
}

// trialOut is one placement trial's outputs.
type trialOut struct {
	ins        *scenario.Instance
	eval       *placement.Evaluator
	placements []*placement.Placement
	hits       []float64
	mass0      float64
}

type placeRunner struct {
	p     placeParams
	tr    *tracer
	lib   *modellib.Library
	gen   scenario.GenConfig
	caps  []int64
	algs  []*timedAlgorithm
	trial *rng.Source

	first, last trialOut
	hitSum      []float64 // per algorithm, over timed ops
}

func newPlaceRunner(p placeParams, seed uint64, tr *tracer) (*placeRunner, error) {
	r := &placeRunner{p: p, tr: tr}
	err := tr.call("libgen.generate", func() error {
		pool, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(p.PoolPerFamily), rng.New(p.LibrarySeed).Split("special-pool"))
		if err != nil {
			return err
		}
		r.lib, err = libgen.TakeStratified(pool, p.Models, rng.New(p.LibrarySeed).Split("special-take"))
		return err
	})
	if err != nil {
		return nil, err
	}
	w := wireless.DefaultConfig()
	w.BackhaulBps = p.BackhaulBps
	r.gen = scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: p.Servers, NumUsers: p.Users, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: demand.DefaultConfig(),
	}
	r.caps = placement.UniformCapacities(p.Servers, p.CapacityBytes)
	r.algs = []*timedAlgorithm{
		newTimedAlgorithm(placement.SpecAlgorithm{Options: placement.SpecOptions{Epsilon: p.Epsilon, MaxCombos: p.MaxCombos}}, "placement.spec", tr),
		newTimedAlgorithm(placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}}, "placement.gen", tr),
		newTimedAlgorithm(placement.IndependentAlgorithm{}, "placement.independent", tr),
	}
	r.trial = rng.New(seed).Split("trials")
	r.hitSum = make([]float64, len(r.algs))
	return r, nil
}

// runTrial draws topology t, places with every algorithm and scores the
// placements under the same fading realizations.
func (r *placeRunner) runTrial(t int) (trialOut, error) {
	src := r.trial.SplitIndex("trial", t)
	var out trialOut
	err := r.tr.call("scenario.generate", func() error {
		var err error
		if out.ins, err = scenario.Generate(r.lib, r.gen, src.Split("instance")); err != nil {
			return err
		}
		out.eval, err = placement.NewEvaluator(out.ins)
		return err
	})
	if err != nil {
		return out, err
	}
	out.mass0 = out.ins.TotalMass()
	for _, a := range r.algs {
		p, err := a.Place(out.eval, r.caps)
		if err != nil {
			return out, fmt.Errorf("%s: %w", a.Name(), err)
		}
		out.placements = append(out.placements, p)
	}
	err = r.tr.call("sim.evaluate", func() error {
		var err error
		out.hits, err = sim.EvaluateUnderFadingWorkers(out.eval, out.placements, r.p.Realizations, workers, src.Split("fading"))
		return err
	})
	return out, err
}

func (r *placeRunner) op(i int) (quality, error) {
	out, err := r.runTrial(i)
	if err != nil {
		return quality{}, err
	}
	r.last = out
	if i == 0 {
		r.first = out
	} else {
		for a, h := range out.hits {
			r.hitSum[a] += h
		}
	}
	return quality{num: out.hits[0], den: 1}, nil
}

func (r *placeRunner) check(int) error {
	for _, a := range r.algs {
		if err := checkSolves(a.drain()); err != nil {
			return err
		}
	}
	if got := r.last.ins.TotalMass(); got != r.last.mass0 {
		return fmt.Errorf("request mass changed during the trial: %v, want %v", got, r.last.mass0)
	}
	return checkHits(r.last.hits)
}

// finish re-runs trial 0 and requires bit-identical placements and hit
// ratios.
func (r *placeRunner) finish() error {
	again, err := r.runTrial(0)
	if err != nil {
		return err
	}
	for _, a := range r.algs {
		a.drain()
	}
	for a := range r.first.hits {
		if again.hits[a] != r.first.hits[a] {
			return fmt.Errorf("trial 0 re-run: %s hit ratio %v, first run %v", r.algs[a].Name(), again.hits[a], r.first.hits[a])
		}
		if !samePlacement(again.placements[a], r.first.placements[a]) {
			return fmt.Errorf("trial 0 re-run: %s placement differs from the first run", r.algs[a].Name())
		}
	}
	return nil
}

func (r *placeRunner) footprint() (memprof.Footprint, int) {
	f := r.last.ins.MemoryFootprint()
	f.Evaluator += r.last.eval.MemoryBytes()
	for _, p := range r.last.placements {
		f.Evaluator += p.MemoryBytes()
	}
	return f, r.last.ins.NumUsers()
}

func (r *placeRunner) layers(m map[string]float64, ops int) {
	for a, key := range []string{"placement.hit_ratio.spec", "placement.hit_ratio.gen", "placement.hit_ratio.independent"} {
		m[key] = r.hitSum[a] / float64(ops)
	}
	m["sim.realizations_per_op"] = float64(r.p.Realizations)
}

// ---- engine deployments --------------------------------------------------

// loraDeployment is a LoRA-library deployment on a server grid at the
// paper's density (10 servers per km²), with LLM provisioning deadlines.
type loraDeployment struct {
	Servers          int     `json:"servers"`
	Users            int     `json:"users"`
	Models           int     `json:"models"`
	FoundationParams int64   `json:"foundation_params"`
	ActiveProb       float64 `json:"active_prob"`
	BackhaulBps      float64 `json:"backhaul_bps"`
	CapacityBytes    int64   `json:"capacity_bytes"`
	Realizations     int     `json:"realizations"`
}

func (d loraDeployment) side() float64 { return 1000 * math.Sqrt(float64(d.Servers)/10) }

// instance draws the deployment's library and instance from the seed. A
// coordinator instance carries no per-link state (the shard engine builds
// its own per cell).
func (d loraDeployment) instance(seed uint64, coordinator bool, tr *tracer) (*scenario.Instance, error) {
	var lib *modellib.Library
	err := tr.call("libgen.generate", func() error {
		cfg := libgen.DefaultLoRAConfig(d.Models)
		cfg.FoundationParams = d.FoundationParams
		var err error
		lib, err = libgen.GenerateLoRA(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	w := wireless.DefaultConfig()
	w.BackhaulBps = d.BackhaulBps
	w.ActiveProb = d.ActiveProb
	wl := demand.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	cfg := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: d.side(), NumServers: d.Servers, NumUsers: d.Users, CoverageRadiusM: w.CoverageRadiusM, ServerLayout: topology.LayoutGrid},
		Wireless: w,
		Workload: wl,
	}
	gen := scenario.Generate
	if coordinator {
		gen = scenario.GenerateCoordinator
	}
	var ins *scenario.Instance
	err = tr.call("scenario.generate", func() error {
		var err error
		ins, err = gen(lib, cfg, rng.New(seed).Split("instance"))
		return err
	})
	return ins, err
}

// lazyGen is the engines' track: lazy TrimCaching Gen, re-placed on the
// degradation trigger.
func lazyGen(alg *timedAlgorithm) []dynamics.Track {
	return []dynamics.Track{{Algorithm: alg, Trigger: dynamics.ThresholdTrigger{Degradation: degradation}}}
}

func newGen(tr *tracer) *timedAlgorithm {
	return newTimedAlgorithm(placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}}, "placement.place", tr)
}

func (d loraDeployment) capacities() []int64 {
	return placement.UniformCapacities(d.Servers, d.CapacityBytes)
}

// newEngineRunner draws the deployment and builds the unsharded incremental
// engine on it, timing the initial solve and t = 0 measurement under
// dynamics.new_engine.
func newEngineRunner(d loraDeployment, seed uint64, tr *tracer) (engineRunner, error) {
	r := engineRunner{d: d, tr: tr, alg: newGen(tr)}
	ins, err := d.instance(seed, false, tr)
	if err != nil {
		return r, err
	}
	r.mass0 = ins.TotalMass()
	err = tr.call("dynamics.new_engine", func() error {
		var err error
		r.eng, err = dynamics.NewEngine(dynamics.Config{
			Instance:      ins,
			Capacities:    d.capacities(),
			Tracks:        lazyGen(r.alg),
			DurationMin:   12 * checkpointMin,
			CheckpointMin: checkpointMin,
			SlotS:         slotS,
			Realizations:  d.Realizations,
			Workers:       workers,
		}, rng.New(seed).Split("engine"))
		return err
	})
	if err != nil {
		return r, err
	}
	// The initial solve ran on the engine's own evaluator; keep it for the
	// feasibility checks.
	solves := r.alg.drain()
	if len(solves) == 0 {
		return r, fmt.Errorf("engine built without an initial solve")
	}
	r.eval = solves[0].eval
	return r, checkSolves(solves)
}

// engineRunner holds what both unsharded engine workloads check each op.
type engineRunner struct {
	d     loraDeployment
	tr    *tracer
	alg   *timedAlgorithm
	eng   *dynamics.Engine
	eval  *placement.Evaluator
	mass0 float64
	hit   float64

	fires, replaces, repairs, changed int
}

// step runs the checkpoint after the instance is current: the walk, the
// refresh and the measurement with its triggered repairs.
func (r *engineRunner) step(cp int) (quality, error) {
	if err := r.tr.call("mobility.advance", r.eng.Advance); err != nil {
		return quality{}, err
	}
	if err := r.tr.call("scenario.refresh", r.eng.Refresh); err != nil {
		return quality{}, err
	}
	var st dynamics.Step
	err := r.tr.call("sim.measure", func() error {
		var err error
		st, err = r.eng.Step(cp)
		return err
	})
	if err != nil {
		return quality{}, err
	}
	r.hit = st.HitRatio[0]
	if cp > 1 && st.Replaced[0] {
		r.fires++
	}
	return quality{num: st.HitRatio[0], den: 1}, nil
}

// checkEngine asserts the engine invariants: request mass conserved, no
// model on a down server, every placement feasible under the live budgets.
func (r *engineRunner) checkEngine(i int) error {
	solves := r.alg.drain()
	if err := checkSolves(solves); err != nil {
		return err
	}
	if i > 0 {
		n, changed := countRepairs(solves)
		r.repairs += n
		r.changed += changed
	}
	ins := r.eng.Instance()
	if got := ins.TotalMass(); got != r.mass0 {
		return fmt.Errorf("request mass drifted: %v, want %v", got, r.mass0)
	}
	caps := make([]int64, ins.NumServers())
	for m := range caps {
		caps[m] = r.eng.ServerCapacityBytes(m)
	}
	if err := checkPlacement(r.eval, r.eng.Placement(0), caps); err != nil {
		return err
	}
	return checkHits([]float64{r.hit})
}

func (r *engineRunner) footprint() (memprof.Footprint, int) {
	return r.eng.MemoryFootprint(), r.eng.Instance().NumUsers()
}

// engineLayers sets the counters every unsharded engine workload reports.
func (r *engineRunner) engineLayers(m map[string]float64, ops int) {
	n := float64(ops)
	m["mobility.user_slots_per_op"] = float64(r.d.Users) * checkpointMin * 60 / slotS
	m["dynamics.trigger_fires_per_op"] = float64(r.fires) / n
	m["placement.repairs_per_op"] = float64(r.repairs) / n
	m["placement.repair_changed_frac"] = ratio(float64(r.changed), float64(r.repairs))
	// One measurement per checkpoint plus one re-baseline per re-placement.
	m["sim.realizations_per_op"] = float64(r.d.Realizations) * (1 + float64(r.fires+r.replaces)/n)
}

// ---- mobility-fading -----------------------------------------------------

func mobilityFading(d loraDeployment) workload {
	return workload{
		name:   "mobility-fading",
		why:    "the paper's mobility loop at population scale: walk, incremental refresh and fused fading measurement, with solves only on triggers",
		params: d,
		setup: func(seed uint64, tr *tracer) (runner, error) {
			er, err := newEngineRunner(d, seed, tr)
			if err != nil {
				return nil, err
			}
			return &mobilityRunner{er}, nil
		},
	}
}

type mobilityRunner struct{ engineRunner }

func (r *mobilityRunner) op(i int) (quality, error) { return r.step(i + 1) }

func (r *mobilityRunner) check(i int) error { return r.checkEngine(i) }

// finish scores the live placement on the live instance and on a cold
// rebuild at the same user positions: the incremental state must match.
func (r *mobilityRunner) finish() error {
	live := r.eng.Instance()
	rebuilt, err := live.Rebuild(live.Topology().UserPositions())
	if err != nil {
		return err
	}
	p := r.eng.Placement(0)
	var hits [2]float64
	for x, ins := range []*scenario.Instance{live, rebuilt} {
		eval, err := placement.NewEvaluator(ins)
		if err != nil {
			return err
		}
		if hits[x], err = eval.HitRatio(p); err != nil {
			return err
		}
	}
	if hits[0] != hits[1] {
		return fmt.Errorf("live instance scores the placement %v, a cold rebuild %v", hits[0], hits[1])
	}
	return nil
}

func (r *mobilityRunner) layers(m map[string]float64, ops int) { r.engineLayers(m, ops) }

// ---- serve-sharded -------------------------------------------------------

type serveParams struct {
	Deployment             loraDeployment `json:"deployment"`
	Shards                 int            `json:"shards"`
	RequestsPerUserPerHour float64        `json:"requests_per_user_per_hour"`
}

func serveSharded(p serveParams) workload {
	return workload{
		name:   "serve-sharded",
		why:    "the same deployment through the sharded engine with trace-driven serving: membership plan, handoffs, the cell pool and the event-driven simulator",
		params: p,
		setup: func(seed uint64, tr *tracer) (runner, error) {
			d := p.Deployment
			ins, err := d.instance(seed, true, tr)
			if err != nil {
				return nil, err
			}
			r := &serveRunner{p: p, tr: tr, alg: newGen(tr)}
			err = tr.call("shard.new_engine", func() error {
				var err error
				r.se, err = shard.NewEngine(shard.Config{
					Instance:       ins,
					Capacities:     d.capacities(),
					Tracks:         lazyGen(r.alg),
					DurationMin:    12 * checkpointMin,
					CheckpointMin:  checkpointMin,
					SlotS:          slotS,
					Realizations:   d.Realizations,
					Trace:          &shard.TraceConfig{RequestsPerUserPerHour: p.RequestsPerUserPerHour, WindowS: checkpointMin * 60},
					Shards:         p.Shards,
					Workers:        workers,
					MeasureWorkers: workers,
				}, rng.New(seed).Split("engine"))
				return err
			})
			if err != nil {
				return nil, err
			}
			if err := checkSolves(r.alg.drain()); err != nil {
				return nil, err
			}
			r.mass0 = ins.TotalMass()
			return r, nil
		},
	}
}

type serveRunner struct {
	p     serveParams
	tr    *tracer
	alg   *timedAlgorithm
	se    *shard.Engine
	mass0 float64
	last  shard.Step

	handoffs0, grows0 int
	repairs, changed  int
	fires             int
	served            servedSums
}

// servedSums accumulates the serving windows of the timed ops.
type servedSums struct {
	requests, direct, relay, cloud, failed, qosHits int
	peak                                            int
	p50, p99                                        float64 // request-weighted seconds
}

func (r *serveRunner) op(i int) (quality, error) {
	if i == 1 {
		r.handoffs0, r.grows0 = r.se.Handoffs(), r.se.Grows()
	}
	err := r.tr.call("shard.checkpoint", func() error {
		var err error
		r.last, err = r.se.Checkpoint(i + 1)
		return err
	})
	if err != nil {
		return quality{}, err
	}
	res := r.last.Serve[0]
	if i > 0 {
		s := &r.served
		s.requests += res.Requests
		s.direct += res.Direct
		s.relay += res.Relay
		s.cloud += res.Cloud
		s.failed += res.Failed
		s.qosHits += res.QoSHits
		s.peak = max(s.peak, res.PeakConcurrency)
		s.p50 += res.P50Latency.Seconds() * float64(res.Requests)
		s.p99 += res.P99Latency.Seconds() * float64(res.Requests)
		if r.last.Replaced[0] {
			r.fires++
		}
	}
	return quality{num: float64(res.QoSHits), den: float64(res.Requests)}, nil
}

func (r *serveRunner) check(i int) error {
	solves := r.alg.drain()
	if err := checkSolves(solves); err != nil {
		return err
	}
	if i > 0 {
		n, changed := countRepairs(solves)
		r.repairs += n
		r.changed += changed
	}
	res := r.last.Serve[0]
	if res.Requests == 0 {
		return fmt.Errorf("empty serving window")
	}
	if res.Direct+res.Relay+res.Cloud+res.Failed != res.Requests {
		return fmt.Errorf("window routes %d+%d+%d+%d do not sum to %d requests", res.Direct, res.Relay, res.Cloud, res.Failed, res.Requests)
	}
	if res.QoSHits > res.Direct+res.Relay {
		return fmt.Errorf("%d QoS hits exceed %d edge-served requests", res.QoSHits, res.Direct+res.Relay)
	}
	if !(res.P50Latency <= res.P95Latency && res.P95Latency <= res.P99Latency) {
		return fmt.Errorf("latency quantiles out of order: p50 %v, p95 %v, p99 %v", res.P50Latency, res.P95Latency, res.P99Latency)
	}
	// Cells partition the users, so their owned request mass must add up
	// to the global mass (summed in another order, hence the tolerance).
	var mass float64
	for c := 0; c < r.se.Cells(); c++ {
		mass += r.se.CellInstance(c).TotalMass()
	}
	if math.Abs(mass-r.mass0) > 1e-9*r.mass0 {
		return fmt.Errorf("cells own request mass %v, want %v", mass, r.mass0)
	}
	return checkHits(r.last.HitRatio)
}

func (r *serveRunner) finish() error { return nil }

func (r *serveRunner) footprint() (memprof.Footprint, int) {
	return r.se.MemoryFootprint(), r.p.Deployment.Users
}

func (r *serveRunner) layers(m map[string]float64, ops int) {
	n, s := float64(ops), r.served
	req := float64(s.requests)
	m["mobility.user_slots_per_op"] = float64(r.p.Deployment.Users) * checkpointMin * 60 / slotS
	m["dynamics.trigger_fires_per_op"] = float64(r.fires) / n
	m["placement.repairs_per_op"] = float64(r.repairs) / n
	m["placement.repair_changed_frac"] = ratio(float64(r.changed), float64(r.repairs))
	m["shard.handoffs_per_op"] = float64(r.se.Handoffs()-r.handoffs0) / n
	m["shard.grows"] = float64(r.se.Grows() - r.grows0)
	m["cachesim.requests_per_op"] = req / n
	m["cachesim.direct_frac"] = ratio(float64(s.direct), req)
	m["cachesim.relay_frac"] = ratio(float64(s.relay), req)
	m["cachesim.cloud_frac"] = ratio(float64(s.cloud), req)
	m["cachesim.uncovered_frac"] = ratio(float64(s.failed), req)
	m["cachesim.qos_hits_per_op"] = float64(s.qosHits) / n
	m["cachesim.peak_concurrency"] = float64(s.peak)
	m["cachesim.request_p50_s"] = ratio(s.p50, req)
	m["cachesim.request_p99_s"] = ratio(s.p99, req)
}

// ---- fault-churn ---------------------------------------------------------

type faultParams struct {
	Deployment loraDeployment `json:"deployment"`
	PDegrade   float64        `json:"p_degrade"`
	PFail      float64        `json:"p_fail"`
	PRecover   float64        `json:"p_recover"`
	MinBytes   int64          `json:"min_bytes"`
	MaxBytes   int64          `json:"max_bytes"`
}

func faultChurn(p faultParams) workload {
	return workload{
		name:   "fault-churn",
		why:    "the write path: regional blackouts and brownouts from a Markov fault process, forced repairs, then the walk, refresh and measurement",
		params: p,
		setup: func(seed uint64, tr *tracer) (runner, error) {
			er, err := newEngineRunner(p.Deployment, seed, tr)
			if err != nil {
				return nil, err
			}
			r := &faultRunner{engineRunner: er}
			// Four quadrants and a central disk: failure domains that overlap.
			s := p.Deployment.side()
			tl, err := faults.Schedule(faults.Config{
				Regions: []geom.Region{
					geom.RectRegion(0, 0, s/2, s/2),
					geom.RectRegion(s/2, 0, s, s/2),
					geom.RectRegion(0, s/2, s/2, s),
					geom.RectRegion(s/2, s/2, s, s),
					geom.DiskRegion(s/2, s/2, s/4),
				},
				Checkpoints: maxOps + 1,
				PDegrade:    p.PDegrade,
				PFail:       p.PFail,
				PRecover:    p.PRecover,
				MinBytes:    p.MinBytes,
				MaxBytes:    p.MaxBytes,
			}, rng.New(seed).Split("faults"))
			if err != nil {
				return nil, err
			}
			r.events = make([][]experiments.Event, maxOps+2)
			for _, ev := range tl.Events {
				r.events[ev.Checkpoint] = append(r.events[ev.Checkpoint], ev)
			}
			return r, nil
		},
	}
}

type faultRunner struct {
	engineRunner
	events [][]experiments.Event // by checkpoint

	applied, downSum int
}

func (r *faultRunner) op(i int) (quality, error) {
	cp := i + 1
	if evs := r.events[cp]; len(evs) > 0 {
		err := r.tr.call("scenario.fault", func() error {
			for _, ev := range evs {
				if err := applyRegional(r.eng, ev); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return quality{}, err
		}
		// A degradation trigger never fires on a recovery, so every event
		// forces a repair.
		err = r.tr.call("placement.replace", func() error {
			_, err := r.eng.Replace(0, cp)
			return err
		})
		if err != nil {
			return quality{}, err
		}
		if i > 0 {
			r.applied += len(evs)
			r.replaces++
		}
	}
	return r.step(cp)
}

// applyRegional replays one regional event with the gallery's semantics:
// 0 is a blackout, a negative budget recovers and restores, a positive one
// is a brownout.
func applyRegional(eng *dynamics.Engine, ev experiments.Event) error {
	switch {
	case ev.CapacityBytes == 0:
		return eng.SetRegionDown(*ev.Region, true)
	case ev.CapacityBytes < 0:
		if err := eng.SetRegionDown(*ev.Region, false); err != nil {
			return err
		}
		return eng.DegradeRegion(*ev.Region, -1)
	default:
		return eng.DegradeRegion(*ev.Region, ev.CapacityBytes)
	}
}

func (r *faultRunner) check(i int) error {
	if i > 0 {
		r.downSum += len(r.eng.Instance().DownServers())
	}
	return r.checkEngine(i)
}

func (r *faultRunner) finish() error { return nil }

func (r *faultRunner) layers(m map[string]float64, ops int) {
	r.engineLayers(m, ops)
	m["scenario.fault_events_per_op"] = float64(r.applied) / float64(ops)
	m["scenario.servers_down_mean"] = float64(r.downSum) / float64(ops)
}

// ---- shared checks -------------------------------------------------------

// checkSolves verifies every queued placement against the capacities and
// the instance it was solved for.
func checkSolves(solves []solve) error {
	for _, s := range solves {
		if err := checkPlacement(s.eval, s.p, s.caps); err != nil {
			return err
		}
	}
	return nil
}

// checkPlacement requires p to fit caps and to leave every down server
// empty.
func checkPlacement(eval *placement.Evaluator, p *placement.Placement, caps []int64) error {
	if err := eval.CheckFeasible(p, caps); err != nil {
		return err
	}
	for _, m := range eval.Instance().DownServers() {
		if n := p.Models(m).Count(); n != 0 {
			return fmt.Errorf("%d models placed on down server %d", n, m)
		}
	}
	return nil
}

// countRepairs counts the repairs among solves and those whose placement
// differs from the one they repaired.
func countRepairs(solves []solve) (repairs, changed int) {
	for _, s := range solves {
		if s.prev == nil {
			continue
		}
		repairs++
		if !samePlacement(s.p, s.prev) {
			changed++
		}
	}
	return repairs, changed
}

func samePlacement(a, b *placement.Placement) bool {
	if a == b {
		return true
	}
	if a.NumServers() != b.NumServers() || a.NumModels() != b.NumModels() {
		return false
	}
	x, y := a.PackedServerColumns(), b.PackedServerColumns()
	if len(x) != len(y) {
		return false
	}
	for w := range x {
		if x[w] != y[w] {
			return false
		}
	}
	return true
}

func checkHits(hits []float64) error {
	for _, h := range hits {
		if math.IsNaN(h) || h < 0 || h > 1 {
			return fmt.Errorf("hit ratio %v outside [0, 1]", h)
		}
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
