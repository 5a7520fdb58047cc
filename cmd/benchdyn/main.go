// Command benchdyn times the dynamics engine's per-checkpoint costs at
// LoRA scale (M = 10, K = 300, I = 1000) and writes them as JSON, so CI
// can track the perf trajectory machine-readably.
//
// Three phases are reported as rebuild vs incremental:
//
//   - refresh: bringing the instance and evaluator up to date with one
//     checkpoint of user movement — the cost every checkpoint pays, and
//     the one the incremental engine turns from O(M·K·I) into
//     O(M·I·|moved| reachability flips).
//   - replace: a forced placement re-solve at every checkpoint (warm-start
//     repair vs cold solve) — the worst-case trigger cadence; under the
//     paper's degradation-threshold protocol replacement is exceptional.
//   - timeline: a full §VII-E timeline end to end, including the fading
//     measurement.
//
// Two per-kernel sections isolate the fused hot loops:
//
//   - measurement: one checkpoint measurement (all configured fading
//     realizations) through the fused single-pass kernel vs the two-pass
//     FadedReach + HitRatioWithReach reference, on the incremental
//     engine's live instance.
//   - resolve: a warm placement re-solve with the evaluator's persistent
//     commit heap carried across checkpoints vs the same solve with the
//     heap rebuilt from all M·I pairs each time.
//
// -shard and -serve instead run one population sweep (sweep.go): the
// unsharded engine against the sharded engine at 1/2/4/8 cells at K = 100k,
// scored by the fading measurement into BENCH_shard.json (with the
// memory-accounted scale rows of scale.go) or by trace-driven serving into
// BENCH_serve.json.
//
// Every report is validated against the documented schema
// (docs/BENCHMARKS.md) before it is written: missing sections, zero-op
// phases, and non-finite speedups fail the run, so the perf plumbing
// cannot rot silently. -smoke runs each pipeline on a toy scenario in
// seconds for CI. Progress lines go to stderr: an output path of - puts the
// JSON alone on stdout, and a file path prints one summary line there.
//
// Usage:
//
//	benchdyn -checkpoints 12 -out BENCH_dynamics.json
//	benchdyn -smoke -out -
//	benchdyn -shard -shardout BENCH_shard.json
//	benchdyn -smoke -serve -serveout - | jq .speedup
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/placement"
	"trimcaching/internal/pool"
	"trimcaching/internal/rng"
	"trimcaching/internal/sim"
)

type phase struct {
	Ops           int     `json:"ops"`
	RebuildNs     int64   `json:"rebuild_ns_per_op"`
	IncrementalNs int64   `json:"incremental_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// kernelPhase compares the realization-blocked fused measurement kernel
// against the same kernel forced to per-realization sweeps and against the
// two-pass reference; one op is one full checkpoint measurement
// (Realizations fading realizations). All three paths are bit-identical;
// the two extra rows isolate how much of the fused win comes from blocking
// (one request sweep scoring a whole block of realizations) versus from
// fusing alone.
type kernelPhase struct {
	Ops          int `json:"ops"`
	Realizations int `json:"realizations"`
	// BlockSize is the realizations per fused sweep the blocked row ran
	// with (the session's auto split across its workers).
	BlockSize int   `json:"block_size"`
	FusedNs   int64 `json:"fused_ns_per_op"`
	// PerRealizationNs is the fused kernel with SetBlockSize(1): one
	// request sweep per realization.
	PerRealizationNs int64   `json:"per_realization_ns_per_op"`
	UnfusedNs        int64   `json:"unfused_ns_per_op"`
	Speedup          float64 `json:"speedup"`
	// BlockedSpeedup is per_realization_ns_per_op over fused_ns_per_op —
	// the blocking win alone.
	BlockedSpeedup float64 `json:"blocked_speedup"`
}

// resolvePhase compares a warm re-solve with the persistent commit heap
// against the same solve rebuilding its heap from all M·I pairs, on two
// workloads: the full re-key view (every user moves every checkpoint) and
// a small-delta view where only one user in small_delta_stride moves — the
// update pattern per-cell sharding produces, where the heap's carry-over
// actually pays off.
type resolvePhase struct {
	Ops                     int     `json:"ops"`
	HeapRebuildNs           int64   `json:"heap_rebuild_ns_per_op"`
	PersistentNs            int64   `json:"persistent_ns_per_op"`
	Speedup                 float64 `json:"speedup"`
	SmallDeltaStride        int     `json:"small_delta_stride"`
	SmallDeltaHeapRebuildNs int64   `json:"small_delta_heap_rebuild_ns_per_op"`
	SmallDeltaPersistentNs  int64   `json:"small_delta_persistent_ns_per_op"`
	SmallDeltaSpeedup       float64 `json:"small_delta_speedup"`
}

type report struct {
	Scenario struct {
		Servers       int     `json:"servers"`
		Users         int     `json:"users"`
		Models        int     `json:"models"`
		CheckpointMin int     `json:"checkpointMin"`
		SlotS         float64 `json:"slotS"`
	} `json:"scenario"`
	// Refresh is the per-checkpoint instance+evaluator update alone.
	Refresh phase `json:"refresh"`
	// Replace is refresh plus a forced placement re-solve per checkpoint.
	Replace phase `json:"replace"`
	// Timeline is the full engine loop including fading measurement.
	Timeline phase `json:"timeline_end_to_end"`
	// Measurement is the per-checkpoint fading measurement, fused vs
	// two-pass.
	Measurement kernelPhase `json:"measurement"`
	// Resolve is the warm re-solve, persistent commit heap vs per-solve
	// heap rebuild.
	Resolve resolvePhase `json:"resolve"`
	// Speedup is the headline number: per-checkpoint refresh speedup of
	// the incremental engine over the full-rebuild path.
	Speedup           float64 `json:"speedup"`
	SpeedupDefinition string  `json:"speedup_definition"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchdyn:", err)
		os.Exit(1)
	}
}

// run parses args and writes the chosen report. Progress lines go to
// stderr, so stdout carries the JSON alone when the report's output path
// is -, and otherwise one summary line.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchdyn", flag.ContinueOnError)
	checkpoints := fs.Int("checkpoints", 12, "checkpoints per measured round (the §VII-E timeline has 12)")
	rounds := fs.Int("rounds", 4, "measured rounds per phase; the fastest round is reported (under -smoke, 5 or more also enforce the blocked-measurement speed gate)")
	smoke := fs.Bool("smoke", false, "run a toy-scale timeline in seconds to validate the benchmark plumbing and the emitted JSON schema (numbers are not comparable to full runs)")
	out := fs.String("out", "BENCH_dynamics.json", "output JSON path, - for stdout")
	shardBench := fs.Bool("shard", false, "run the shard scale benchmark instead (sharded multi-cell engine vs unsharded), writing -shardout")
	shardOut := fs.String("shardout", "BENCH_shard.json", "shard benchmark output JSON path, - for stdout")
	serveBench := fs.Bool("serve", false, "run the trace-driven serving benchmark instead (request-level throughput and tail latency, unsharded vs sharded), writing -serveout")
	serveOut := fs.String("serveout", "BENCH_serve.json", "serve benchmark output JSON path, - for stdout")
	serveRate := fs.Float64("serverate", 1, "serve benchmark request rate (requests per user per hour)")
	serveCheckpoints := fs.Int("servecheckpoints", 4, "timed checkpoints per serve benchmark engine (after one warm-up; the fastest is reported)")
	shardUsers := fs.Int("shardusers", 100000, "shard benchmark users K")
	shardServers := fs.Int("shardservers", 100, "shard benchmark servers M")
	shardModels := fs.Int("shardmodels", 250, "shard benchmark LoRA adapters I")
	shardCheckpoints := fs.Int("shardcheckpoints", 4, "timed checkpoints per shard benchmark engine (after one warm-up; the fastest is reported)")
	scaleUsers := fs.Int("scaleusers", 1_000_000, "scale row users K (coordinator-backed grid deployment)")
	scaleServers := fs.Int("scaleservers", 961, "scale row servers M (grid layout; 31x31 keeps the sweep's ~1000 users per server at K = 1M, so the provisioned workload stays meaningful)")
	scaleModels := fs.Int("scalemodels", 64, "scale row LoRA adapters I")
	scaleShards := fs.Int("scaleshards", 36, "scale row cell count")
	scaleCheckpoints := fs.Int("scalecheckpoints", 3, "timed checkpoints on the scale row (after one warm-up)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkpoints <= 0 || *rounds <= 0 {
		return fmt.Errorf("checkpoints and rounds must be positive, got %d and %d", *checkpoints, *rounds)
	}
	if *shardBench && *serveBench {
		return fmt.Errorf("-shard and -serve each write their own report; pass one of them")
	}
	counts := []int{1, 2, 4, 8}
	if *smoke {
		// Toy dims proving the pipeline and schema in seconds; explicitly
		// set flags keep their values.
		smokeDefaults := map[string]string{
			"checkpoints": "2", "rounds": "1",
			"shardusers": "600", "shardservers": "12", "shardmodels": "48",
			"scaleusers": "2000", "scaleservers": "16", "scalemodels": "24", "scaleshards": "4", "scalecheckpoints": "2",
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for name, v := range smokeDefaults {
			if !set[name] {
				if err := fs.Set(name, v); err != nil {
					return err
				}
			}
		}
		counts = []int{1, 2}
	}
	// The serving sweep shares the shard benchmark's scenario dims.
	spec := sweepSpec{users: *shardUsers, servers: *shardServers, models: *shardModels, checkpoints: *shardCheckpoints, counts: counts}
	if *serveBench {
		if !(*serveRate > 0) { // NaN included
			return fmt.Errorf("serve request rate must be positive, got %v", *serveRate)
		}
		spec.checkpoints, spec.rate = *serveCheckpoints, *serveRate
		return runSweep(stdout, stderr, spec, nil, *serveOut)
	}
	if *shardBench {
		scale := scaleSpec{
			Users:       *scaleUsers,
			Servers:     *scaleServers,
			Models:      *scaleModels,
			Shards:      *scaleShards,
			Checkpoints: *scaleCheckpoints,
		}
		return runSweep(stdout, stderr, spec, []scaleSpec{scale}, *shardOut)
	}
	newConfig := dynamics.NewLoRAScaleConfig
	if *smoke {
		newConfig = dynamics.NewSmokeScaleConfig
	}

	var rep report
	cfg, err := newConfig(dynamics.Incremental)
	if err != nil {
		return err
	}
	rep.Scenario.Servers = cfg.Instance.NumServers()
	rep.Scenario.Users = cfg.Instance.NumUsers()
	rep.Scenario.Models = cfg.Instance.NumModels()
	rep.Scenario.CheckpointMin = cfg.CheckpointMin
	rep.Scenario.SlotS = cfg.SlotS

	// Each phase runs `rounds` rounds and keeps the fastest. Every round
	// gets a fresh engine with the same seed, so all rounds replay the
	// identical checkpoint sequence and the minimum is a clean filter for
	// scheduler and GC noise; a warm-up checkpoint first absorbs the
	// incremental mode's one-time threshold flip index build.
	warmEngine := func(mode dynamics.Mode) (*dynamics.Engine, error) {
		cfg, err := newConfig(mode)
		if err != nil {
			return nil, err
		}
		e, err := dynamics.NewEngine(cfg, rng.New(1))
		if err != nil {
			return nil, err
		}
		if _, _, err := e.ProfileCheckpoints(1, false); err != nil {
			return nil, err
		}
		runtime.GC()
		return e, nil
	}
	profile := func(mode dynamics.Mode, forceReplace bool) (refresh, repair time.Duration, err error) {
		for r := 0; r < *rounds; r++ {
			e, err := warmEngine(mode)
			if err != nil {
				return 0, 0, err
			}
			rf, rp, err := e.ProfileCheckpoints(*checkpoints, forceReplace)
			if err != nil {
				return 0, 0, err
			}
			if r == 0 || rf+rp < refresh+repair {
				refresh, repair = rf, rp
			}
		}
		return refresh, repair, nil
	}
	// Refresh is measured on its own pass: under the paper's protocol a
	// checkpoint normally only refreshes and measures, and interleaving
	// forced solves would pollute its cache behavior.
	rebRefresh, _, err := profile(dynamics.Rebuild, false)
	if err != nil {
		return err
	}
	incRefresh, _, err := profile(dynamics.Incremental, false)
	if err != nil {
		return err
	}
	rebRefresh2, rebRepair, err := profile(dynamics.Rebuild, true)
	if err != nil {
		return err
	}
	incRefresh2, incRepair, err := profile(dynamics.Incremental, true)
	if err != nil {
		return err
	}
	fill := func(p *phase, reb, inc time.Duration) {
		p.Ops = *checkpoints
		p.RebuildNs = reb.Nanoseconds() / int64(*checkpoints)
		p.IncrementalNs = inc.Nanoseconds() / int64(*checkpoints)
		if inc > 0 {
			p.Speedup = float64(reb) / float64(inc)
		}
	}
	fill(&rep.Refresh, rebRefresh, incRefresh)
	fill(&rep.Replace, rebRefresh2+rebRepair, incRefresh2+incRepair)

	timeline := func(mode dynamics.Mode) (time.Duration, error) {
		cfg, err := newConfig(mode)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := dynamics.Run(cfg, rng.New(2)); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	rebTimeline, err := timeline(dynamics.Rebuild)
	if err != nil {
		return err
	}
	incTimeline, err := timeline(dynamics.Incremental)
	if err != nil {
		return err
	}
	fill(&rep.Timeline, rebTimeline, incTimeline)

	if err := benchMeasurement(&rep.Measurement, warmEngine, cfg.Realizations, *checkpoints, *rounds, *smoke); err != nil {
		return err
	}
	if err := benchResolve(&rep.Resolve, warmEngine, *checkpoints, *rounds); err != nil {
		return err
	}

	rep.Speedup = rep.Refresh.Speedup
	rep.SpeedupDefinition = "per-checkpoint instance refresh (delta reachability update + evaluator reuse) vs full rebuild; replace and timeline_end_to_end report the forced-re-solve and measurement-included views; measurement and resolve isolate the fused fading kernel and the persistent commit heap"

	return writeReport(stdout, *out, rep, validateReport,
		fmt.Sprintf("refresh %.2fx, replace %.2fx, timeline %.2fx, measurement %.2fx, resolve %.2fx",
			rep.Refresh.Speedup, rep.Replace.Speedup, rep.Timeline.Speedup,
			rep.Measurement.Speedup, rep.Resolve.Speedup))
}

// writeReport marshals rep and validates the bytes against the documented
// schema. With out "-" it writes the JSON alone to stdout; otherwise it
// writes the file and then prints summary and the path to stdout.
func writeReport(stdout io.Writer, out string, rep any, validate func([]byte) error, summary string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := validate(data); err != nil {
		return fmt.Errorf("emitted report fails schema validation: %w", err)
	}
	if out == "-" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s -> %s\n", summary, out)
	return nil
}

// benchMeasurement times one checkpoint measurement (all realizations)
// through the realization-blocked fused kernel, the same kernel forced to
// per-realization sweeps (SetBlockSize(1)), and the two-pass reference, on
// the incremental engine's live instance — the instance every timeline
// measurement actually sees, threshold rank index included. All three
// paths produce bit-identical hit ratios (cross-checked here, in every
// run). Under -smoke with at least speedGateRounds rounds the blocked path
// must also not fall behind the per-realization path (blockedSpeedGate):
// that is the CI guard keeping the blocked sweep honest.
func benchMeasurement(out *kernelPhase, warmEngine func(dynamics.Mode) (*dynamics.Engine, error), realizations, ops, rounds int, smoke bool) error {
	e, err := warmEngine(dynamics.Incremental)
	if err != nil {
		return err
	}
	ins := e.Instance()
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		return err
	}
	placements := []*placement.Placement{e.Placement(0)}
	blocked := sim.NewFadingSession(ins, 0)
	perReal := sim.NewFadingSession(ins, 0)
	perReal.SetBlockSize(1)
	src := rng.New(3)
	fused, err := blocked.Evaluate(eval, placements, realizations, src)
	if err != nil {
		return err
	}
	single, err := perReal.Evaluate(eval, placements, realizations, src)
	if err != nil {
		return err
	}
	unfused, err := blocked.EvaluateUnfused(eval, placements, realizations, src)
	if err != nil {
		return err
	}
	if fused[0] != single[0] {
		return fmt.Errorf("blocked measurement %v differs from per-realization %v", fused[0], single[0])
	}
	if fused[0] != unfused[0] {
		return fmt.Errorf("fused measurement %v differs from two-pass %v", fused[0], unfused[0])
	}
	timePath := func(session *sim.FadingSession, unfusedPath bool) (time.Duration, error) {
		var fastest time.Duration
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for n := 0; n < ops; n++ {
				var err error
				if unfusedPath {
					_, err = session.EvaluateUnfused(eval, placements, realizations, src)
				} else {
					_, err = session.Evaluate(eval, placements, realizations, src)
				}
				if err != nil {
					return 0, err
				}
			}
			if d := time.Since(start); r == 0 || d < fastest {
				fastest = d
			}
		}
		return fastest, nil
	}
	fastF, err := timePath(blocked, false)
	if err != nil {
		return err
	}
	fastP, err := timePath(perReal, false)
	if err != nil {
		return err
	}
	fastU, err := timePath(blocked, true)
	if err != nil {
		return err
	}
	// Mirror the session's auto split: GOMAXPROCS workers clamped to the
	// realization count, realizations divided evenly across them.
	workers := pool.Size(0, realizations)
	out.Ops = ops
	out.Realizations = realizations
	out.BlockSize = (realizations + workers - 1) / workers
	out.FusedNs = fastF.Nanoseconds() / int64(ops)
	out.PerRealizationNs = fastP.Nanoseconds() / int64(ops)
	out.UnfusedNs = fastU.Nanoseconds() / int64(ops)
	if fastF > 0 {
		out.Speedup = float64(fastU) / float64(fastF)
		out.BlockedSpeedup = float64(fastP) / float64(fastF)
	}
	if smoke {
		return blockedSpeedGate(fastF, fastP, rounds)
	}
	return nil
}

// speedGateRounds is the fewest measured rounds the smoke speed gate
// trusts. The gate compares the fastest round of each path, and a single
// round of toy-dimension timings (about 0.1 ms) on a shared host is noise:
// one-round smoke runs, as go test drives them, skip it, and the CI smoke
// step passes -rounds 5.
const speedGateRounds = 5

// blockedSpeedGate fails when the blocked measurement path, at its fastest
// of rounds rounds, took more than ×1.25 the per-realization path's
// fastest; with fewer than speedGateRounds rounds it always passes.
func blockedSpeedGate(blocked, perRealization time.Duration, rounds int) error {
	if rounds < speedGateRounds || blocked <= perRealization+perRealization/4 {
		return nil
	}
	return fmt.Errorf("blocked measurement path (%v) fell behind the per-realization path (%v) beyond the smoke margin (fastest of %d rounds)", blocked, perRealization, rounds)
}

// smallDeltaStride is the resolve section's small-delta move rate: one
// user in this many is applied to the instance per checkpoint (~1%).
const smallDeltaStride = 100

// benchResolve times forced warm re-solves with the persistent commit heap
// carried across checkpoints vs the heap rebuilt per solve, on the
// full-move workload and on the ~1%-move small-delta workload. Engines in
// each pairing replay the identical checkpoint sequence.
func benchResolve(out *resolvePhase, warmEngine func(dynamics.Mode) (*dynamics.Engine, error), ops, rounds int) error {
	measure := func(stride int, rebuildHeap bool) (time.Duration, error) {
		var fastest time.Duration
		for r := 0; r < rounds; r++ {
			e, err := warmEngine(dynamics.Incremental)
			if err != nil {
				return 0, err
			}
			d, err := e.ProfileResolvesSubset(ops, stride, rebuildHeap)
			if err != nil {
				return 0, err
			}
			if r == 0 || d < fastest {
				fastest = d
			}
		}
		return fastest, nil
	}
	rebuilt, err := measure(1, true)
	if err != nil {
		return err
	}
	persistent, err := measure(1, false)
	if err != nil {
		return err
	}
	sdRebuilt, err := measure(smallDeltaStride, true)
	if err != nil {
		return err
	}
	sdPersistent, err := measure(smallDeltaStride, false)
	if err != nil {
		return err
	}
	out.Ops = ops
	out.HeapRebuildNs = rebuilt.Nanoseconds() / int64(ops)
	out.PersistentNs = persistent.Nanoseconds() / int64(ops)
	if persistent > 0 {
		out.Speedup = float64(rebuilt) / float64(persistent)
	}
	out.SmallDeltaStride = smallDeltaStride
	out.SmallDeltaHeapRebuildNs = sdRebuilt.Nanoseconds() / int64(ops)
	out.SmallDeltaPersistentNs = sdPersistent.Nanoseconds() / int64(ops)
	if sdPersistent > 0 {
		out.SmallDeltaSpeedup = float64(sdRebuilt) / float64(sdPersistent)
	}
	return nil
}

// fieldSpec is one required numeric field of a documented JSON schema.
type fieldSpec struct {
	path string
	min  float64
}

// reportSchema lists every numeric field the documented BENCH_dynamics.json
// schema requires, with its minimum legal value. Validation reads the
// emitted bytes, not the in-memory struct, so field renames that desync
// docs and emitter fail loudly.
var reportSchema = []fieldSpec{
	{"scenario.servers", 1},
	{"scenario.users", 1},
	{"scenario.models", 1},
	{"scenario.checkpointMin", 1},
	{"scenario.slotS", 0.000001},
	{"refresh.ops", 1},
	{"refresh.rebuild_ns_per_op", 1},
	{"refresh.incremental_ns_per_op", 1},
	{"refresh.speedup", 0.000001},
	{"replace.ops", 1},
	{"replace.rebuild_ns_per_op", 1},
	{"replace.incremental_ns_per_op", 1},
	{"replace.speedup", 0.000001},
	{"timeline_end_to_end.ops", 1},
	{"timeline_end_to_end.rebuild_ns_per_op", 1},
	{"timeline_end_to_end.incremental_ns_per_op", 1},
	{"timeline_end_to_end.speedup", 0.000001},
	{"measurement.ops", 1},
	{"measurement.realizations", 1},
	{"measurement.block_size", 1},
	{"measurement.fused_ns_per_op", 1},
	{"measurement.per_realization_ns_per_op", 1},
	{"measurement.unfused_ns_per_op", 1},
	{"measurement.speedup", 0.000001},
	{"measurement.blocked_speedup", 0.000001},
	{"resolve.ops", 1},
	{"resolve.heap_rebuild_ns_per_op", 1},
	{"resolve.persistent_ns_per_op", 1},
	{"resolve.speedup", 0.000001},
	{"resolve.small_delta_stride", 2},
	{"resolve.small_delta_heap_rebuild_ns_per_op", 1},
	{"resolve.small_delta_persistent_ns_per_op", 1},
	{"resolve.small_delta_speedup", 0.000001},
	{"speedup", 0.000001},
}

// validateReport checks the emitted JSON against the documented schema:
// every required section and field present, numeric, and at least its
// minimum (zero-op or zero-duration sections indicate broken plumbing,
// not fast code). Non-finite values never reach this point: Go's JSON
// encoder rejects NaN and ±Inf at marshal time, so a NaN speedup fails
// the run there, and json.Unmarshal cannot produce them from valid JSON.
func validateReport(data []byte) error {
	_, err := checkReport(data, reportSchema)
	return err
}

// checkReport decodes a report and checks its top-level schema fields and
// its speedup_definition string.
func checkReport(data []byte, schema []fieldSpec) (map[string]any, error) {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	if err := checkFields(doc, schema); err != nil {
		return nil, err
	}
	if _, ok := doc["speedup_definition"].(string); !ok {
		return nil, fmt.Errorf("speedup_definition: missing or not a string")
	}
	return doc, nil
}

// checkFields validates one decoded JSON object against a schema table:
// every dotted path present, numeric, and at least its minimum.
func checkFields(doc map[string]any, schema []fieldSpec) error {
	for _, f := range schema {
		node := any(doc)
		path := f.path
		for {
			obj, ok := node.(map[string]any)
			if !ok {
				return fmt.Errorf("%s: parent is not an object", f.path)
			}
			key, rest, nested := strings.Cut(path, ".")
			child, ok := obj[key]
			if !ok {
				return fmt.Errorf("%s: missing field %q", f.path, key)
			}
			if nested {
				node, path = child, rest
				continue
			}
			v, ok := child.(float64)
			if !ok {
				return fmt.Errorf("%s: not a number", f.path)
			}
			if v < f.min {
				return fmt.Errorf("%s: %v below minimum %v", f.path, v, f.min)
			}
			break
		}
	}
	return nil
}
