package main

// The -shard and -serve sections: one population sweep at BENCH_shard.json
// and BENCH_serve.json dimensions (K = 100k users, M = 100 servers by
// default) that compares the sharded multi-cell engine at 1/2/4/8 cells
// against the unsharded engine on the same deployment, workload, and walk.
//
// -shard scores every checkpoint with the fused fading measurement. -serve
// instead synthesizes a request window per checkpoint (Poisson arrivals per
// user, Zipf popularity) and serves it through the event-driven simulator,
// so its rows add request-level numbers: requests per second of wall time,
// the measured QoS hit ratio, and exact p50/p95/p99 request latency.
// Sharded cells synthesize only their owned users' arrivals (global-user-
// keyed streams, so the window partitions exactly), and the per-cell sorted
// latency buffers are k-way merged for the global quantiles — never
// quantiles-of-quantiles.
//
// Per-checkpoint latency is the full loop — walk, membership plan, instance
// refresh, measurement or synthesis and serve, and any triggered
// re-placements — reported as the fastest of the timed checkpoints after
// one untimed warm-up (flip-index builds amortize across a timeline; the
// min filters page-fault storms that hit freshly built multi-GB engines).
// The main rows pin every worker pool to one goroutine so the numbers
// compare across machines; a second sweep at Workers = max(2, NumCPU)
// reports the multi-core scaling curve, with speedups still against the
// single-core unsharded baseline. -shard adds the memory-accounted scale
// rows (scale.go). Like the dynamics report, the emitted JSON is
// schema-validated before it is written.

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/dynamics"
	"trimcaching/internal/rng"
	"trimcaching/internal/shard"
)

// sweepSpec is one population sweep: the scenario dims, the timed
// checkpoints per engine, the cell counts, and the serve request rate in
// requests per user per hour (rate > 0 selects trace-driven serving).
type sweepSpec struct {
	users, servers, models, checkpoints int
	counts                              []int
	rate                                float64
}

// sweepRun is one engine configuration's measurements.
type sweepRun struct {
	// Shards is the cell count; 0 marks the unsharded dynamics engine.
	Shards int `json:"shards"`
	// Workers is the worker-pool bound the row ran with: 1 on the main
	// rows (pinned single-core, comparable across machines), max(2,
	// NumCPU) in the multicore section.
	Workers int `json:"workers"`
	// Checkpoints is the timed checkpoint count (after one warm-up).
	Checkpoints int `json:"checkpoints"`
	// CheckpointNs is the fastest timed checkpoint's end-to-end wall time —
	// the same min-filter the dynamics benchmark applies to rounds, which
	// rejects transient page-fault and scheduler noise (multi-GB engines on
	// a shared box fault storms into early checkpoints).
	CheckpointNs int64 `json:"checkpoint_ns_per_op"`
	// ThroughputUsersPerS is users per second of the fastest checkpoint.
	ThroughputUsersPerS float64 `json:"throughput_users_per_s"`
	// Speedup is the single-core unsharded per-checkpoint time over this
	// run's (every row, multicore included, shares that one baseline).
	Speedup float64 `json:"speedup"`
	// HitRatioMean averages track 0's hit ratio over the timed checkpoints
	// — the quality cost of cell autonomy, next to its speed. A serve row
	// averages the measured QoS hit ratio, aggregated across cells as
	// ΣQoSHits/ΣRequests.
	HitRatioMean float64 `json:"hit_ratio_mean"`
	// Handoffs and Grows count cross-cell ownership transfers and
	// slot-table rebuilds over the timed checkpoints (0 when unsharded).
	Handoffs int `json:"handoffs"`
	Grows    int `json:"grows"`
	// ServeRun holds a serve row's request-level numbers; it is nil, and
	// omitted, on -shard rows.
	*ServeRun
}

// ServeRun is a serve row's request-level numbers. It is exported because
// encoding/json cannot decode into an embedded pointer to an unexported
// struct.
type ServeRun struct {
	// Requests is the total request count over the timed checkpoints.
	Requests int `json:"requests"`
	// ThroughputRequestsPerS is the timed checkpoints' total request count
	// over their total wall time — the sustained request-level rate of the
	// whole loop, not just the serve kernel.
	ThroughputRequestsPerS float64 `json:"throughput_requests_per_s"`
	// P50/P95/P99LatencyNs are request-weighted means over the timed
	// checkpoints of each window's exact latency quantile. Within a window
	// the quantile is exact even when sharded — per-cell sorted latency
	// buffers are merged before the quantile is read.
	P50LatencyNs int64 `json:"p50_latency_ns"`
	P95LatencyNs int64 `json:"p95_latency_ns"`
	P99LatencyNs int64 `json:"p99_latency_ns"`
}

// sweepScenario is a sweep report's scenario header: realizations on a
// shard report, the request rate and window on a serve report.
type sweepScenario struct {
	Servers                int     `json:"servers"`
	Users                  int     `json:"users"`
	Models                 int     `json:"models"`
	CheckpointMin          int     `json:"checkpointMin"`
	SlotS                  float64 `json:"slotS"`
	Realizations           int     `json:"realizations,omitempty"`
	RequestsPerUserPerHour float64 `json:"requestsPerUserPerHour,omitempty"`
	WindowS                float64 `json:"windowS,omitempty"`
}

type sweepReport struct {
	Scenario sweepScenario `json:"scenario"`
	// Unsharded is the single whole-area engine baseline (Workers = 1).
	Unsharded sweepRun `json:"unsharded"`
	// Sharded holds one entry per cell count, ascending (Workers = 1).
	Sharded []sweepRun `json:"sharded"`
	// Multicore repeats the sweep with Workers = max(2, NumCPU). On a
	// single-core host the curve is flat by construction — the rows then
	// document pool-scheduling overhead rather than parallel speedup.
	Multicore struct {
		Workers   int        `json:"workers"`
		Unsharded sweepRun   `json:"unsharded"`
		Sharded   []sweepRun `json:"sharded"`
	} `json:"multicore"`
	// Scale holds a shard report's memory-accounted scale rows (see
	// scale.go), headlined by the K = 1M configuration. Scale rows run on a
	// planned-grid deployment behind a coordinator global instance, so they
	// are not point-comparable with the uniform-layout sweep rows above.
	Scale []scaleRun `json:"scale,omitempty"`
	// Speedup is the headline number: the largest cell count's single-core
	// speedup.
	Speedup           float64 `json:"speedup"`
	SpeedupDefinition string  `json:"speedup_definition"`
}

// sample is one checkpoint of a sweep engine: track 0's hit ratio, the
// serve window's result (zero unless serving), and the engine's running
// handoff and grow counts (0 when unsharded).
type sample struct {
	hit             float64
	serve           cachesim.EventResult
	handoffs, grows int
}

// runSweep executes one population sweep — single-core, then multicore
// against the single-core baseline, then one scale row per spec — and
// writes the report.
func runSweep(stdout, stderr io.Writer, spec sweepSpec, scales []scaleSpec, out string) error {
	name, validate := "shard", validateShardReport
	definition := "end-to-end per-checkpoint wall time (walk + membership plan + instance refresh + fused fading measurement + triggered re-placements) of the unsharded dynamics engine over the sharded multi-cell engine at the largest cell count, all worker pools pinned to one goroutine; the multicore section repeats the sweep with workers = max(2, NumCPU), speedups still against the single-core unsharded baseline; hit_ratio_mean reports the quality cost of cell-autonomous placement and serving"
	if spec.rate > 0 {
		name, validate = "serve", validateServeReport
		definition = "end-to-end per-checkpoint wall time of the trace-driven serving loop (walk + membership plan + instance refresh + request synthesis + event-driven serve + triggered re-placements) of the unsharded dynamics engine over the sharded multi-cell engine at the largest cell count, all worker pools pinned to one goroutine; the multicore section repeats the sweep with workers = max(2, NumCPU), speedups still against the single-core unsharded baseline; latency quantiles are exact within each window (per-cell sorted buffers merged before the quantile is read) and request-weighted-averaged across the timed checkpoints"
	}
	if spec.checkpoints <= 0 {
		return fmt.Errorf("%s checkpoints must be positive, got %d", name, spec.checkpoints)
	}
	var rep sweepReport
	runs, err := sweep(stderr, &rep.Scenario, spec, 1, 0)
	if err != nil {
		return err
	}
	rep.Unsharded, rep.Sharded = runs[0], runs[1:]
	mc := max(2, runtime.NumCPU())
	if runs, err = sweep(stderr, nil, spec, mc, rep.Unsharded.CheckpointNs); err != nil {
		return err
	}
	rep.Multicore.Workers, rep.Multicore.Unsharded, rep.Multicore.Sharded = mc, runs[0], runs[1:]
	for _, s := range scales {
		row, err := runScale(stderr, s)
		if err != nil {
			return err
		}
		rep.Scale = append(rep.Scale, row)
	}
	last := rep.Sharded[len(rep.Sharded)-1]
	rep.Speedup, rep.SpeedupDefinition = last.Speedup, definition
	return writeReport(stdout, out, rep, validate,
		fmt.Sprintf("%s speedup %.2fx at %d shards", name, rep.Speedup, last.Shards))
}

// sweep runs the unsharded engine and then one sharded engine per cell
// count, all with the given worker-pool bound, and returns their rows,
// unsharded first; scen, when non-nil, receives the scenario header.
// baseNs is the reference per-checkpoint time every speedup divides; 0
// means this sweep's own unsharded time, whose speedup is then exactly 1.
func sweep(stderr io.Writer, scen *sweepScenario, spec sweepSpec, workers int, baseNs int64) ([]sweepRun, error) {
	var runs []sweepRun
	for _, cells := range append([]int{0}, spec.counts...) {
		run, err := timeEngine(scen, spec, cells, workers)
		if err != nil {
			return nil, err
		}
		debug.FreeOSMemory() // the engine died with timeEngine's frame
		if baseNs == 0 {
			baseNs = run.CheckpointNs
		}
		if run.CheckpointNs > 0 {
			run.Speedup = float64(baseNs) / float64(run.CheckpointNs)
		}
		runs = append(runs, run)
		fmt.Fprintf(stderr, "shards=%d workers=%d: %v/checkpoint (%.2fx), hit %.4f, %d handoffs",
			cells, workers, time.Duration(run.CheckpointNs), run.Speedup, run.HitRatioMean, run.Handoffs)
		if s := run.ServeRun; s != nil {
			fmt.Fprintf(stderr, ", %.0f req/s, p99 %v", s.ThroughputRequestsPerS, time.Duration(s.P99LatencyNs))
		}
		fmt.Fprintln(stderr)
	}
	return runs, nil
}

// timeEngine builds one sweep row's engine on the bench deployment — the
// unsharded dynamics engine at cells = 0, driven through Advance, Refresh
// and Step, or the sharded engine at that cell count — and times it.
func timeEngine(scen *sweepScenario, spec sweepSpec, cells, workers int) (sweepRun, error) {
	cfg, err := shard.NewBenchConfig(spec.users, spec.servers, spec.models, max(cells, 1))
	if err != nil {
		return sweepRun{}, err
	}
	windowS := float64(cfg.CheckpointMin) * 60
	if scen != nil {
		*scen = sweepScenario{Servers: spec.servers, Users: spec.users, Models: spec.models,
			CheckpointMin: cfg.CheckpointMin, SlotS: cfg.SlotS}
		if spec.rate > 0 {
			scen.RequestsPerUserPerHour, scen.WindowS = spec.rate, windowS
		} else {
			scen.Realizations = cfg.Realizations
		}
	}
	var step func(cp int) (sample, error)
	if cells == 0 {
		dcfg := dynamics.Config{
			Instance:      cfg.Instance,
			Capacities:    cfg.Capacities,
			Tracks:        cfg.Tracks,
			DurationMin:   cfg.DurationMin,
			CheckpointMin: cfg.CheckpointMin,
			SlotS:         cfg.SlotS,
			Realizations:  cfg.Realizations,
			Workers:       workers,
			Mode:          dynamics.Incremental,
		}
		if spec.rate > 0 {
			dcfg.Measurement = &dynamics.TraceMeasurement{RequestsPerUserPerHour: spec.rate, WindowS: windowS}
		}
		eng, err := dynamics.NewEngine(dcfg, rng.New(1))
		if err != nil {
			return sweepRun{}, err
		}
		tm := eng.TraceMeasurement()
		step = func(cp int) (sample, error) {
			if err := eng.Advance(); err != nil {
				return sample{}, err
			}
			if err := eng.Refresh(); err != nil {
				return sample{}, err
			}
			st, err := eng.Step(cp)
			if err != nil {
				return sample{}, err
			}
			s := sample{hit: st.HitRatio[0]}
			if tm != nil {
				s.serve = tm.LastResults()[0]
			}
			return s, nil
		}
	} else {
		cfg.Workers = workers
		if spec.rate > 0 {
			cfg.Trace = &shard.TraceConfig{RequestsPerUserPerHour: spec.rate, WindowS: windowS}
		}
		se, err := shard.NewEngine(cfg, rng.New(1))
		if err != nil {
			return sweepRun{}, err
		}
		step = func(cp int) (sample, error) {
			st, err := se.Checkpoint(cp)
			if err != nil {
				return sample{}, err
			}
			s := sample{hit: st.HitRatio[0], handoffs: se.Handoffs(), grows: se.Grows()}
			if st.Serve != nil {
				s.serve = st.Serve[0]
			}
			return s, nil
		}
	}
	run, err := timeRun(step, spec)
	run.Shards, run.Workers = cells, workers
	return run, err
}

// timeRun runs checkpoint 1 untimed, to absorb the flip-index builds, then
// times checkpoints 2 … spec.checkpoints+1 and returns their row: the
// fastest checkpoint, the mean hit ratio, the handoff and grow deltas and,
// when serving, the request totals and request-weighted quantile means.
func timeRun(step func(cp int) (sample, error), spec sweepSpec) (sweepRun, error) {
	warm, err := step(1)
	if err != nil {
		return sweepRun{}, err
	}
	last := warm
	var fastest, total time.Duration
	var hits, p50, p95, p99 float64
	var requests int
	for cp := 2; cp <= spec.checkpoints+1; cp++ {
		start := time.Now()
		s, err := step(cp)
		if err != nil {
			return sweepRun{}, err
		}
		d := time.Since(start)
		if cp == 2 || d < fastest {
			fastest = d
		}
		total += d
		if spec.rate > 0 {
			// The measured ΣQoSHits/ΣRequests, not Step.HitRatio: a sharded
			// engine's Step carries the cells' request-mass-weighted mean
			// of their own ratios, which differs beyond one cell.
			s.hit = s.serve.HitRatio
		}
		hits += s.hit
		requests += s.serve.Requests
		w := float64(s.serve.Requests)
		p50 += float64(s.serve.P50Latency.Nanoseconds()) * w
		p95 += float64(s.serve.P95Latency.Nanoseconds()) * w
		p99 += float64(s.serve.P99Latency.Nanoseconds()) * w
		last = s
	}
	run := sweepRun{
		Checkpoints:         spec.checkpoints,
		CheckpointNs:        fastest.Nanoseconds(),
		ThroughputUsersPerS: float64(spec.users) / fastest.Seconds(),
		HitRatioMean:        hits / float64(spec.checkpoints),
		Handoffs:            last.handoffs - warm.handoffs,
		Grows:               last.grows - warm.grows,
	}
	if spec.rate > 0 {
		run.ServeRun = &ServeRun{Requests: requests}
		if total > 0 {
			run.ThroughputRequestsPerS = float64(requests) / total.Seconds()
		}
		if requests > 0 {
			w := float64(requests)
			run.P50LatencyNs, run.P95LatencyNs, run.P99LatencyNs = int64(p50/w), int64(p95/w), int64(p99/w)
		}
	}
	return run, nil
}

// sweepSchema returns the numeric fields a shard or serve report requires
// at the top level and on every {unsharded, sharded[]} row. The serve row
// does not require throughput_users_per_s or grows: reports written before
// serve rows carried them stay valid.
func sweepSchema(serve bool) (top, row []fieldSpec) {
	top = []fieldSpec{
		{"scenario.servers", 1},
		{"scenario.users", 1},
		{"scenario.models", 1},
		{"scenario.checkpointMin", 1},
		{"scenario.slotS", 0.000001},
		{"multicore.workers", 2},
		{"speedup", 0.000001},
	}
	row = []fieldSpec{
		{"shards", 0},
		{"workers", 1},
		{"checkpoints", 1},
		{"checkpoint_ns_per_op", 1},
		{"hit_ratio_mean", 0.000001},
	}
	if !serve {
		return append(top, fieldSpec{"scenario.realizations", 1}),
			append(row, fieldSpec{"throughput_users_per_s", 0.000001})
	}
	return append(top,
			fieldSpec{"scenario.requestsPerUserPerHour", 0.000001},
			fieldSpec{"scenario.windowS", 1}),
		append(row,
			fieldSpec{"requests", 1},
			fieldSpec{"throughput_requests_per_s", 0.000001},
			fieldSpec{"p50_latency_ns", 1},
			fieldSpec{"p95_latency_ns", 1},
			fieldSpec{"p99_latency_ns", 1})
}

// checkRuns validates one {unsharded, sharded[]} group of a sweep report:
// the baseline present with every row field sane, at least one sharded
// entry, and a positive speedup and ordered latency quantiles on each
// sharded row (a crossed pair means the merge or the weighting broke; a
// shard row has no quantiles, which passes).
func checkRuns(doc map[string]any, label string, schema []fieldSpec) error {
	un, ok := doc["unsharded"].(map[string]any)
	if !ok {
		return fmt.Errorf("%sunsharded: missing or not an object", label)
	}
	if err := checkFields(un, schema); err != nil {
		return fmt.Errorf("%sunsharded: %w", label, err)
	}
	runs, ok := doc["sharded"].([]any)
	if !ok || len(runs) == 0 {
		return fmt.Errorf("%ssharded: missing or empty", label)
	}
	for i, r := range runs {
		obj, ok := r.(map[string]any)
		if !ok {
			return fmt.Errorf("%ssharded[%d]: not an object", label, i)
		}
		if err := checkFields(obj, schema); err != nil {
			return fmt.Errorf("%ssharded[%d]: %w", label, i, err)
		}
		if v, _ := obj["speedup"].(float64); v < 0.000001 {
			return fmt.Errorf("%ssharded[%d]: speedup %v below minimum", label, i, v)
		}
		p50, _ := obj["p50_latency_ns"].(float64)
		p95, _ := obj["p95_latency_ns"].(float64)
		p99, _ := obj["p99_latency_ns"].(float64)
		if p50 > p95 || p95 > p99 {
			return fmt.Errorf("%ssharded[%d]: latency quantiles out of order: p50=%v p95=%v p99=%v", label, i, p50, p95, p99)
		}
	}
	return nil
}

// validateShardReport checks emitted BENCH_shard.json bytes against the
// documented schema (docs/BENCHMARKS.md).
func validateShardReport(data []byte) error { return validateSweep(data, false) }

// validateServeReport checks emitted BENCH_serve.json bytes against the
// documented schema (docs/BENCHMARKS.md).
func validateServeReport(data []byte) error { return validateSweep(data, true) }

// validateSweep checks a shard or serve report: the scenario header and
// headline speedup, the single-core {unsharded, sharded[]} group and the
// multicore section's own, and on a shard report the scale section. A scale
// row whose bytes_per_user or allocs_per_checkpoint is missing, zero, or
// non-numeric fails the run — those are the fields the section exists to
// publish, and a zero means the accounting seam broke.
func validateSweep(data []byte, serve bool) error {
	top, row := sweepSchema(serve)
	doc, err := checkReport(data, top)
	if err != nil {
		return err
	}
	if err := checkRuns(doc, "", row); err != nil {
		return err
	}
	// The top schema's multicore.workers proves multicore is an object.
	if err := checkRuns(doc["multicore"].(map[string]any), "multicore.", row); err != nil {
		return err
	}
	if serve {
		return nil
	}
	rows, ok := doc["scale"].([]any)
	if !ok || len(rows) == 0 {
		return fmt.Errorf("scale: missing or empty")
	}
	for i, r := range rows {
		obj, ok := r.(map[string]any)
		if !ok {
			return fmt.Errorf("scale[%d]: not an object", i)
		}
		if err := checkFields(obj, scaleRunSchema); err != nil {
			return fmt.Errorf("scale[%d]: %w", i, err)
		}
		// The footprint total must actually be the component sum — a
		// desync means a component was added without threading it through.
		fp := obj["footprint"].(map[string]any)
		var sum float64
		for _, v := range fp {
			if n, ok := v.(float64); ok {
				sum += n
			}
		}
		if total, _ := obj["footprint_total_bytes"].(float64); total != sum {
			return fmt.Errorf("scale[%d]: footprint_total_bytes %v is not the component sum %v", i, total, sum)
		}
	}
	return nil
}
