// Package sim is the Monte-Carlo evaluation harness of §VII-A: placement
// decisions are computed on average channel gains, then the cache hit ratio
// is measured over Rayleigh block-fading realizations; results are averaged
// over many random network topologies with standard-deviation error bars.
// Trials run in parallel on a bounded worker pool.
package sim

import (
	"fmt"
	"math"
	"time"

	"trimcaching/internal/modellib"
	"trimcaching/internal/placement"
	"trimcaching/internal/pool"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/stats"
)

// TrialConfig describes one experiment point: a library, a scenario
// distribution, a storage capacity, and the algorithms to compare.
type TrialConfig struct {
	// Library is the fixed parameter-sharing model library.
	Library *modellib.Library
	// Scenario is the distribution of topologies and workloads.
	Scenario scenario.GenConfig
	// CapacityBytes is the per-server storage capacity Q.
	CapacityBytes int64
	// CapacityFactors optionally makes capacities heterogeneous: server m
	// gets CapacityBytes scaled by CapacityFactors[m mod len]. Empty means
	// uniform capacities (the paper's setting).
	CapacityFactors []float64
	// Algorithms are the placement algorithms to compare on identical
	// instances and identical fading realizations.
	Algorithms []placement.Algorithm
	// Topologies is the number of random network topologies (paper: 100).
	Topologies int
	// Realizations is the number of Rayleigh fading realizations per
	// topology (paper: >10^3).
	Realizations int
	// Workers bounds the parallel trial goroutines; 0 means GOMAXPROCS.
	Workers int
	// Seed makes the whole run reproducible.
	Seed uint64
}

// Validate reports the first invalid field, if any.
func (c TrialConfig) Validate() error {
	if c.Library == nil {
		return fmt.Errorf("sim: library is required")
	}
	if len(c.Algorithms) == 0 {
		return fmt.Errorf("sim: at least one algorithm is required")
	}
	if c.CapacityBytes < 0 {
		return fmt.Errorf("sim: negative capacity %d", c.CapacityBytes)
	}
	for fi, f := range c.CapacityFactors {
		if f < 0 {
			return fmt.Errorf("sim: negative capacity factor %v at %d", f, fi)
		}
	}
	if c.Topologies <= 0 {
		return fmt.Errorf("sim: Topologies must be positive, got %d", c.Topologies)
	}
	if c.Realizations <= 0 {
		return fmt.Errorf("sim: Realizations must be positive, got %d", c.Realizations)
	}
	if c.Workers < 0 {
		return fmt.Errorf("sim: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// AlgoResult aggregates one algorithm's performance across topologies.
type AlgoResult struct {
	// Name is the algorithm display name.
	Name string
	// HitRatio summarizes the per-topology fading-averaged hit ratios.
	HitRatio stats.Summary
	// AvgHitRatio summarizes the per-topology hit ratios under the average
	// channel (no fading), useful for debugging the fading gap.
	AvgHitRatio stats.Summary
	// PlaceSeconds summarizes the per-topology placement wall time (the
	// running-time axis of Fig. 6).
	PlaceSeconds stats.Summary
}

// trialOutcome is one topology's result for all algorithms.
type trialOutcome struct {
	hit     []float64
	avgHit  []float64
	seconds []float64
}

// Run executes the experiment point and aggregates per-algorithm summaries.
func Run(cfg TrialConfig) ([]AlgoResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	outcomes := make([]trialOutcome, cfg.Topologies)
	err := pool.Run(pool.Size(cfg.Workers, cfg.Topologies), cfg.Topologies, pool.Func(func(_, t int) error {
		var err error
		if outcomes[t], err = runTrial(cfg, root.SplitIndex("trial", t)); err != nil {
			return fmt.Errorf("sim: trial %d: %w", t, err)
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}

	accHit := make([]stats.Accumulator, len(cfg.Algorithms))
	accAvg := make([]stats.Accumulator, len(cfg.Algorithms))
	accSec := make([]stats.Accumulator, len(cfg.Algorithms))
	for t := range outcomes {
		for a := range cfg.Algorithms {
			accHit[a].Add(outcomes[t].hit[a])
			accAvg[a].Add(outcomes[t].avgHit[a])
			accSec[a].Add(outcomes[t].seconds[a])
		}
	}
	results := make([]AlgoResult, len(cfg.Algorithms))
	for a, alg := range cfg.Algorithms {
		results[a] = AlgoResult{
			Name:         alg.Name(),
			HitRatio:     accHit[a].Summarize(),
			AvgHitRatio:  accAvg[a].Summarize(),
			PlaceSeconds: accSec[a].Summarize(),
		}
	}
	return results, nil
}

// runTrial builds one random instance, places with every algorithm, and
// evaluates all placements under the same fading realizations.
func runTrial(cfg TrialConfig, src *rng.Source) (trialOutcome, error) {
	out := trialOutcome{
		avgHit:  make([]float64, len(cfg.Algorithms)),
		seconds: make([]float64, len(cfg.Algorithms)),
	}
	ins, err := scenario.Generate(cfg.Library, cfg.Scenario, src.Split("instance"))
	if err != nil {
		return out, err
	}
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		return out, err
	}
	caps := placement.UniformCapacities(ins.NumServers(), cfg.CapacityBytes)
	for m := range caps {
		if len(cfg.CapacityFactors) > 0 {
			caps[m] = int64(float64(cfg.CapacityBytes) * cfg.CapacityFactors[m%len(cfg.CapacityFactors)])
		}
	}

	placements := make([]*placement.Placement, len(cfg.Algorithms))
	for a, alg := range cfg.Algorithms {
		start := time.Now()
		p, err := alg.Place(eval, caps)
		out.seconds[a] = time.Since(start).Seconds()
		if err != nil {
			return out, fmt.Errorf("%s: %w", alg.Name(), err)
		}
		if err := eval.CheckFeasible(p, caps); err != nil {
			return out, fmt.Errorf("%s: %w", alg.Name(), err)
		}
		placements[a] = p
		if out.avgHit[a], err = eval.HitRatio(p); err != nil {
			return out, err
		}
	}
	out.hit, err = EvaluateUnderFading(eval, placements, cfg.Realizations, src.Split("fading"))
	return out, err
}

// EvaluateUnderFading measures each placement's expected hit ratio over the
// given number of Rayleigh fading realizations. All placements see identical
// realizations so comparisons are paired. Realizations are scored in
// parallel on a bounded worker pool (GOMAXPROCS workers); see
// EvaluateUnderFadingWorkers for the determinism contract.
func EvaluateUnderFading(eval *placement.Evaluator, placements []*placement.Placement, realizations int, src *rng.Source) ([]float64, error) {
	return EvaluateUnderFadingWorkers(eval, placements, realizations, 0, src)
}

// EvaluateUnderFadingWorkers is EvaluateUnderFading with an explicit worker
// count (0 means GOMAXPROCS). It builds a one-shot FadingSession; loops
// that evaluate repeatedly over same-sized instances (one call per mobility
// checkpoint) should hold a session and reuse its buffers instead.
func EvaluateUnderFadingWorkers(eval *placement.Evaluator, placements []*placement.Placement, realizations, workers int, src *rng.Source) ([]float64, error) {
	// Size the one-shot session to the realization count, so no unused
	// per-worker buffers are allocated for small counts.
	return NewFadingSession(eval.Instance(), pool.Size(workers, realizations)).Evaluate(eval, placements, realizations, src)
}

// FadingSession owns the scratch a Monte-Carlo fading evaluation needs —
// per-worker fused-kernel scratch and realization sources, plus the
// per-realization score table — so repeated Evaluate calls perform no
// steady-state allocation. The buffers are sized by instance dimensions,
// not bound to one instance: a session built at t = 0 serves every later
// checkpoint of a mobility timeline, whether the instance was updated in
// place or rebuilt.
//
// Evaluate scores through the realization-blocked fused measurement
// kernel (scenario.Instance.FadedHitMassBlock): each worker draws a whole
// block of realizations and scores all placements in one request sweep,
// with no reachability indicator and no gain matrix materialized.
// EvaluateUnfused keeps the two-pass FadedReach + HitRatioWithReach
// reference; the paths are pinned bit-identical.
type FadingSession struct {
	numServers, numUsers, numModels int
	workers                         int
	blockSize                       int // 0 = auto (realizations split across workers)
	scratch                         []*scenario.FadeScratch
	bufs                            []*scenario.Reach // EvaluateUnfused only, lazy
	gains                           [][][]float64     // EvaluateUnfused only, lazy
	srcs                            [][]*rng.Source   // per-worker realization source views
	srcVals                         [][]rng.Source    // the sources behind srcs, reseeded in place
	hr                              []float64
	views                           []scenario.ServerColumns
	ctx                             evalContext // reused fused-scoring context
}

// evalContext carries one Evaluate call's read-only scoring state. It lives
// inside the session and is passed to the worker pool as a pointer, so the
// hot path builds no closure: a fused evaluation allocates nothing once the
// session buffers have grown to the call's shape.
type evalContext struct {
	s            *FadingSession
	ins          *scenario.Instance
	src          *rng.Source
	views        []scenario.ServerColumns
	hr           []float64
	block        int
	realizations int
	placements   int
	total        float64
}

// NewFadingSession allocates a session for instances with ins's dimensions
// and the given worker count (0 means GOMAXPROCS).
func NewFadingSession(ins *scenario.Instance, workers int) *FadingSession {
	workers = pool.Size(workers, math.MaxInt)
	s := &FadingSession{
		numServers: ins.NumServers(),
		numUsers:   ins.NumUsers(),
		numModels:  ins.NumModels(),
		workers:    workers,
		scratch:    make([]*scenario.FadeScratch, workers),
		srcs:       make([][]*rng.Source, workers),
		srcVals:    make([][]rng.Source, workers),
	}
	for w := 0; w < workers; w++ {
		s.scratch[w] = ins.MakeFadeScratch()
	}
	return s
}

// SetBlockSize sets the number of realizations each worker scores through
// one fused sweep (scenario.Instance.FadedHitMassBlock). 0 restores the
// default: the realizations split evenly across the workers, so a
// single-worker session scores them all in one sweep. 1 forces the
// per-realization path. Results are bit-identical for every block size
// and worker count — realizations never interact within a block, and the
// reduction always runs in realization order.
func (s *FadingSession) SetBlockSize(n int) { s.blockSize = n }

// Evaluate measures each placement's expected hit ratio over the given
// number of Rayleigh fading realizations against eval's instance, which
// must match the session's dimensions.
//
// Realization r draws its gains from src.SplitIndex("real", r) — a pure
// function of the seed material, not of stream position — so every
// realization is independent of evaluation order, and the final per-
// placement averages are reduced in realization order. Workers score
// whole realization blocks (SetBlockSize) through one fused sweep each;
// the per-realization scores are computed independently within a block,
// so the result is bit-identical for any worker count and block size,
// and comparisons stay paired: every placement sees the same
// realizations.
func (s *FadingSession) Evaluate(eval *placement.Evaluator, placements []*placement.Placement, realizations int, src *rng.Source) ([]float64, error) {
	return s.EvaluateInto(nil, eval, placements, realizations, src)
}

// EvaluateInto is Evaluate with a caller-provided result buffer: the
// per-placement averages are written into dst (grown if its capacity is
// short; pass nil to allocate fresh) and returned as dst[:len(placements)].
// Checkpoint loops that evaluate every slot should pass a persistent buffer
// so the steady state performs no allocation at all.
func (s *FadingSession) EvaluateInto(dst []float64, eval *placement.Evaluator, placements []*placement.Placement, realizations int, src *rng.Source) ([]float64, error) {
	ins, hr, err := s.prepare(eval, placements, realizations)
	if err != nil {
		return nil, err
	}
	// Placement columns are read-only during the evaluation, so one view
	// slice is shared by all workers.
	if cap(s.views) < len(placements) {
		s.views = make([]scenario.ServerColumns, len(placements))
	}
	views := s.views[:len(placements)]
	for a, p := range placements {
		views[a] = p
	}
	block := s.blockSize
	if block <= 0 {
		// Auto: split the realizations evenly across the workers, so the
		// pool stays fully used while each worker amortizes its request
		// sweep over the largest possible block.
		block = (realizations + s.workers - 1) / s.workers
	}
	block = min(block, realizations)
	blocks := (realizations + block - 1) / block
	s.ctx = evalContext{
		s:            s,
		ins:          ins,
		src:          src,
		views:        views,
		hr:           hr,
		block:        block,
		realizations: realizations,
		placements:   len(placements),
		total:        ins.TotalMass(),
	}
	err = pool.Run(s.workers, blocks, &s.ctx)
	s.ctx = evalContext{} // drop the borrowed eval/src references
	if err != nil {
		return nil, err
	}
	return s.reduce(dst, hr, len(placements), realizations), nil
}

// Do evaluates realization block b on worker w through one fused sweep.
func (c *evalContext) Do(w, b int) error {
	s := c.s
	r0 := b * c.block
	n := c.block
	if r0+n > c.realizations {
		n = c.realizations - r0
	}
	srcs, vals := s.srcs[w], s.srcVals[w]
	if cap(srcs) < n {
		srcs = make([]*rng.Source, n)
		vals = make([]rng.Source, n)
		for j := range srcs {
			srcs[j] = &vals[j]
		}
		s.srcs[w], s.srcVals[w] = srcs, vals
	}
	srcs, vals = srcs[:n], vals[:n]
	for j := range vals {
		// SplitIndexInto only reads the parent's immutable seed material,
		// so concurrent splits are safe; the per-realization source values
		// are worker-owned and reseeded in place.
		c.src.SplitIndexInto(&vals[j], "real", r0+j)
	}
	rows := c.hr[r0*c.placements : (r0+n)*c.placements]
	if err := c.ins.FadedHitMassBlock(srcs, c.views, rows, s.scratch[w]); err != nil {
		return err
	}
	for x := range rows {
		rows[x] /= c.total
	}
	return nil
}

// EvaluateUnfused is the two-pass reference path — FadedReach materializes
// the full indicator, HitRatioWithReach streams it again — retained for
// callers that need the buffer semantics and for the equivalence tests and
// benchmarks pinning it bit-identical to the fused Evaluate. The reach
// buffers and gain matrices are allocated on first use, so fused-only
// sessions never pay for them.
func (s *FadingSession) EvaluateUnfused(eval *placement.Evaluator, placements []*placement.Placement, realizations int, src *rng.Source) ([]float64, error) {
	ins, hr, err := s.prepare(eval, placements, realizations)
	if err != nil {
		return nil, err
	}
	if s.bufs == nil {
		s.bufs = make([]*scenario.Reach, s.workers)
		s.gains = make([][][]float64, s.workers)
		for w := range s.bufs {
			s.bufs[w] = ins.MakeReachBuffer()
			s.gains[w] = make([][]float64, ins.NumServers())
			for m := range s.gains[w] {
				s.gains[w][m] = make([]float64, ins.NumUsers())
			}
		}
	}
	err = pool.Run(s.workers, realizations, pool.Func(func(w, r int) error {
		gains := s.gains[w]
		scenario.SampleGainsInto(gains, src.SplitIndex("real", r))
		reach, err := ins.FadedReach(gains, s.bufs[w])
		if err != nil {
			return err
		}
		for a, p := range placements {
			v, err := eval.HitRatioWithReach(p, reach)
			if err != nil {
				return err
			}
			hr[r*len(placements)+a] = v
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return s.reduce(nil, hr, len(placements), realizations), nil
}

// prepare validates the instance and every placement against the session
// dimensions and sizes the per-realization score table
// hr[r*len(placements)+a].
func (s *FadingSession) prepare(eval *placement.Evaluator, placements []*placement.Placement, realizations int) (*scenario.Instance, []float64, error) {
	if realizations <= 0 {
		return nil, nil, fmt.Errorf("sim: realizations must be positive, got %d", realizations)
	}
	ins := eval.Instance()
	if ins.NumServers() != s.numServers || ins.NumUsers() != s.numUsers || ins.NumModels() != s.numModels {
		return nil, nil, fmt.Errorf("sim: instance dims %dx%dx%d, session %dx%dx%d",
			ins.NumServers(), ins.NumUsers(), ins.NumModels(), s.numServers, s.numUsers, s.numModels)
	}
	for a, p := range placements {
		if p == nil {
			return nil, nil, fmt.Errorf("sim: placement %d is nil", a)
		}
		if p.NumServers() != s.numServers || p.NumModels() != s.numModels {
			return nil, nil, fmt.Errorf("sim: placement %d dims %dx%d, instance %dx%d",
				a, p.NumServers(), p.NumModels(), s.numServers, s.numModels)
		}
	}
	if need := realizations * len(placements); cap(s.hr) < need {
		s.hr = make([]float64, need)
	}
	return ins, s.hr[:realizations*len(placements)], nil
}

// MemoryBytes returns the heap bytes the session owns: per-worker fused
// scratch and realization sources, the per-realization score table, and the
// lazily built unfused reference buffers when present.
func (s *FadingSession) MemoryBytes() int64 {
	const (
		hdrSize = 24 // slice header
		srcSize = 40 // rng.Source: 4-word state + seed
	)
	var n int64
	for _, sc := range s.scratch {
		n += sc.MemoryBytes()
	}
	n += int64(cap(s.scratch)+cap(s.srcs)+cap(s.srcVals)) * hdrSize
	for w := range s.srcs {
		n += int64(cap(s.srcs[w]))*8 + int64(cap(s.srcVals[w]))*srcSize
	}
	n += int64(cap(s.hr)) * 8
	n += int64(cap(s.views)) * 16
	for _, b := range s.bufs {
		n += b.MemoryBytes()
	}
	for w := range s.gains {
		n += int64(cap(s.gains[w])) * hdrSize
		for m := range s.gains[w] {
			n += int64(cap(s.gains[w][m])) * 8
		}
	}
	return n
}

// reduce averages the per-realization scores in realization order (the
// determinism contract: bit-identical for any worker count) into dst, which
// is grown when nil or short — so Evaluate allocates a fresh result while
// EvaluateInto with a persistent buffer allocates nothing.
func (s *FadingSession) reduce(dst []float64, hr []float64, placements, realizations int) []float64 {
	if cap(dst) < placements {
		dst = make([]float64, placements)
	}
	sums := dst[:placements]
	for a := range sums {
		sums[a] = 0
	}
	for r := 0; r < realizations; r++ {
		for a := 0; a < placements; a++ {
			sums[a] += hr[r*placements+a]
		}
	}
	for a := range sums {
		sums[a] /= float64(realizations)
	}
	return sums
}
