// Command servesim runs the event-driven serving simulator end to end:
// build a library and scenario, place models with a chosen algorithm,
// generate (or replay) a Poisson request trace, and report route counts,
// QoS hit ratio, and latency percentiles under processor-shared spectrum.
// With -mobility it instead drives the incremental dynamics engine: users
// walk the §VII-E mobility model, the hit ratio is re-measured under
// fading at every checkpoint, and the placement is repaired whenever it
// degrades past -replace-threshold. With -trace the engine runs its
// trace-driven track instead: every checkpoint synthesizes a request
// window at -rate arrivals/user/hour, serves it through the event-driven
// simulator, and replacement fires on measured hit-ratio degradation
// (windowed over -trigger-window checkpoints). With -shards N the mobility
// timeline runs on the sharded multi-cell engine instead: the area is
// partitioned into N geographic cells with per-cell instances and
// placements, and the reported hit ratio is the request-mass-weighted
// aggregate; combined with -trace each cell serves its owned users'
// arrivals and the timeline adds the aggregated per-window request counts
// and exact latency quantiles. With -gallery <name> it runs one
// scenario-gallery timeline (outage, flashcrowd, diurnal, churn, degrade,
// regional) through BOTH the unsharded and the sharded engine and prints
// the event-annotated trajectories; unset flags keep the gallery's golden
// defaults, so a bare -gallery run reproduces the checked-in artifacts. An
// unknown name fails with the list of available families.
//
// Usage:
//
//	servesim -alg gen -rate 60 -duration 1800
//	servesim -alg independent -replay requests.jsonl
//	servesim -alg gen -save-trace requests.jsonl
//	servesim -alg gen -mobility 120 -replace-threshold 0.1
//	servesim -alg gen -trace -replace-threshold 0.1 -trigger-window 2
//	servesim -alg gen -mobility 120 -shards 4 -users 300
//	servesim -gallery outage -users 100000 -servers 100 -models 60 -mob-realizations 25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/dynamics"
	"trimcaching/internal/experiments"
	"trimcaching/internal/libgen"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/shard"
	"trimcaching/internal/topology"
	"trimcaching/internal/trace"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("servesim", flag.ContinueOnError)
	alg := fs.String("alg", "gen", "placement algorithm: spec, gen, gen-ratio, independent, popularity")
	servers := fs.Int("servers", 10, "edge servers M")
	users := fs.Int("users", 30, "users K")
	models := fs.Int("models", 30, "library size I")
	capacityGB := fs.Float64("capacity", 0.75, "per-server storage in GB")
	rate := fs.Float64("rate", 30, "requests per user per hour")
	duration := fs.Float64("duration", 1800, "trace horizon in seconds")
	seed := fs.Uint64("seed", 1, "random seed")
	traceIn := fs.String("replay", "", "replay this JSONL trace instead of generating one")
	traceOut := fs.String("save-trace", "", "write the generated trace to this JSONL file")
	mobilityMin := fs.Int("mobility", 0, "run a mobility timeline of this many minutes instead of serving a trace")
	checkpointMin := fs.Int("checkpoint", 10, "mobility checkpoint interval in minutes")
	replaceThreshold := fs.Float64("replace-threshold", 0, "re-place when the hit ratio degrades by this fraction (0 = never)")
	mobRealizations := fs.Int("mob-realizations", 200, "fading realizations per mobility checkpoint")
	rebuild := fs.Bool("rebuild", false, "use full per-checkpoint instance rebuilds instead of incremental deltas")
	traceDriven := fs.Bool("trace", false, "trace-driven mobility: measure checkpoints by serving synthesized request windows at -rate instead of fading Monte-Carlo")
	triggerWindow := fs.Int("trigger-window", 1, "checkpoints averaged by the trace-driven replacement trigger")
	shards := fs.Int("shards", 1, "partition the area into this many geographic cells with per-cell engines (mobility or trace mode)")
	gallery := fs.String("gallery", "", "run this scenario-gallery timeline (outage, flashcrowd, diurnal, churn, degrade, regional) through both engines instead of serving a trace")
	reserveModels := fs.Int("reserve-models", 0, "extra adapters held back for gallery grow events (gallery mode)")
	galleryJSON := fs.String("gallery-json", "", "also write the gallery artifact (both legs) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -trace used to take the replay path as a value; a stray positional
	// argument is almost certainly that old spelling, so fail loudly
	// instead of silently ignoring it (and every flag after it).
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (replay a trace file with -replay <file>)", fs.Arg(0))
	}
	if *traceDriven && *mobilityMin <= 0 {
		*mobilityMin = 120 // the §VII-E timeline
	}
	if *gallery != "" {
		// Start from the golden-pinned defaults and apply only the flags
		// the user actually set, so a bare -gallery run reproduces the
		// checked-in reduced-scale artifacts bit for bit.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		gcfg := experiments.DefaultGalleryConfig()
		if set["servers"] {
			gcfg.Servers = *servers
		}
		if set["users"] {
			gcfg.Users = *users
		}
		if set["models"] {
			gcfg.Models = *models
		}
		if set["reserve-models"] {
			gcfg.ReserveModels = *reserveModels
		}
		if set["capacity"] {
			gcfg.CapacityBytes = int64(*capacityGB * 1e9)
		}
		if set["mobility"] {
			gcfg.DurationMin = *mobilityMin
		}
		if set["checkpoint"] {
			gcfg.CheckpointMin = *checkpointMin
		}
		if set["mob-realizations"] {
			gcfg.Realizations = *mobRealizations
		}
		if set["shards"] {
			gcfg.Shards = *shards
		}
		if set["seed"] {
			gcfg.Seed = *seed
		}
		if *rebuild {
			gcfg.Mode = dynamics.Rebuild
		}
		return runGallery(stdout, *gallery, gcfg, *galleryJSON)
	}

	algorithm, err := placement.ByName(*alg)
	if err != nil {
		return err
	}
	src := rng.New(*seed)
	pool, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(100), src.Split("pool"))
	if err != nil {
		return err
	}
	lib, err := libgen.TakeStratified(pool, *models, src.Split("take"))
	if err != nil {
		return err
	}
	w := wireless.DefaultConfig()
	w.BackhaulBps = 1e9
	ins, err := scenario.Generate(lib, scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: *servers, NumUsers: *users, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}, src.Split("instance"))
	if err != nil {
		return err
	}
	caps := placement.UniformCapacities(ins.NumServers(), int64(*capacityGB*1e9))
	if *mobilityMin > 0 {
		mob := mobilityOptions{
			durationMin:   *mobilityMin,
			checkpointMin: *checkpointMin,
			threshold:     *replaceThreshold,
			realizations:  *mobRealizations,
			rebuild:       *rebuild,
			traceDriven:   *traceDriven,
			traceRate:     *rate,
			triggerWindow: *triggerWindow,
			shards:        *shards,
		}
		return runMobility(stdout, ins, algorithm, caps, mob, src.Split("dynamics"))
	}
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		return err
	}
	p, err := algorithm.Place(eval, caps)
	if err != nil {
		return err
	}

	var tr *trace.Trace
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			return fmt.Errorf("open trace: %w", err)
		}
		defer f.Close()
		tr, err = trace.ReadJSONL(f)
		if err != nil {
			return err
		}
	} else {
		tr, err = trace.Generate(ins.Workload(), *rate, *duration, src.Split("trace"))
		if err != nil {
			return err
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("create trace file: %w", err)
			}
			if err := tr.WriteJSONL(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d requests to %s\n", len(tr.Requests), *traceOut)
		}
	}

	res, err := cachesim.ServeTrace(ins, p, tr, cachesim.DefaultEventConfig(), src.Split("serve"))
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "algorithm\t%s\n", algorithm.Name())
	fmt.Fprintf(tw, "scenario\tM=%d K=%d I=%d Q=%.2fGB\n", ins.NumServers(), ins.NumUsers(), ins.NumModels(), *capacityGB)
	fmt.Fprintf(tw, "requests\t%d\n", res.Requests)
	fmt.Fprintf(tw, "routes\tdirect=%d relay=%d cloud=%d failed=%d\n", res.Direct, res.Relay, res.Cloud, res.Failed)
	fmt.Fprintf(tw, "QoS hit ratio\t%.4f\n", res.HitRatio)
	fmt.Fprintf(tw, "latency\tmean=%v p50=%v p95=%v p99=%v\n",
		res.MeanLatency.Round(1_000_000), res.P50Latency.Round(1_000_000),
		res.P95Latency.Round(1_000_000), res.P99Latency.Round(1_000_000))
	fmt.Fprintf(tw, "peak concurrency\t%d downloads on one server\n", res.PeakConcurrency)
	return tw.Flush()
}

// runGallery drives one gallery scenario through both engines and prints
// the event-annotated timelines side by side.
func runGallery(stdout io.Writer, name string, base experiments.GalleryConfig, jsonOut string) error {
	cfg, err := experiments.GalleryScenario(name, base)
	if err != nil {
		return err
	}
	unsharded, err := experiments.RunGallery(cfg)
	if err != nil {
		return err
	}
	sharded, err := experiments.RunGallerySharded(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "gallery scenario\t%s\n", cfg.Name)
	fmt.Fprintf(tw, "deployment\tM=%d K=%d I=%d (+%d reserve) Q=%.2fGB shards=%d seed=%d\n",
		cfg.Servers, cfg.Users, cfg.Models, cfg.ReserveModels, float64(cfg.CapacityBytes)/1e9, cfg.Shards, cfg.Seed)
	fmt.Fprintf(tw, "timeline\t%d min, %d min checkpoints, %d fading realizations\n",
		cfg.DurationMin, cfg.CheckpointMin, cfg.Realizations)
	for _, res := range []*experiments.GalleryResult{unsharded, sharded} {
		leg := "unsharded"
		if res.Sharded {
			leg = fmt.Sprintf("sharded (%d cells, %d handoffs, %d slot regrows)", cfg.Shards, res.Handoffs, res.Grows)
		}
		fmt.Fprintf(tw, "\t\t\n")
		fmt.Fprintf(tw, "engine\t%s\t\n", leg)
		fmt.Fprintf(tw, "time (min)\thit ratio\tevents\n")
		for _, st := range res.Steps {
			marker := ""
			if st.Replaced {
				marker = "<- replaced"
			}
			events := ""
			for i, ev := range st.Events {
				if i > 0 {
					events += ", "
				}
				events += ev
			}
			if events != "" && marker != "" {
				marker += " "
			}
			fmt.Fprintf(tw, "%.0f\t%.4f\t%s%s\n", st.TimeMin, st.HitRatio, marker, events)
		}
		fmt.Fprintf(tw, "replacements\t%d (final library %d models)\t\n", res.Replacements, res.FinalModels)
		if res.PreOutageHit > 0 {
			rec := "never"
			if res.RecoveryCheckpoints >= 0 {
				rec = fmt.Sprintf("%d checkpoints", res.RecoveryCheckpoints)
			}
			fmt.Fprintf(tw, "recovery\tpre-outage hit %.4f, recovered to %.0f%% in %s\t\n",
				res.PreOutageHit, 100*cfg.RecoveryFrac, rec)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if jsonOut != "" {
		artifact := experiments.GalleryArtifact{Config: cfg, Unsharded: unsharded, Sharded: sharded}
		buf, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", jsonOut)
	}
	return nil
}

// mobilityOptions collects the -mobility / -trace mode knobs.
type mobilityOptions struct {
	durationMin, checkpointMin int
	threshold                  float64
	realizations               int
	rebuild                    bool
	traceDriven                bool
	traceRate                  float64
	triggerWindow              int
	shards                     int
}

// runMobility drives the dynamics engine and prints the per-checkpoint
// timeline.
func runMobility(stdout io.Writer, ins *scenario.Instance, alg placement.Algorithm, caps []int64,
	opt mobilityOptions, src *rng.Source) error {
	mode := dynamics.Incremental
	if opt.rebuild {
		mode = dynamics.Rebuild
	}
	var measurement dynamics.Measurement
	var trigger dynamics.Trigger = dynamics.NeverTrigger{}
	measureDesc := fmt.Sprintf("fading, %d realizations/checkpoint", opt.realizations)
	if opt.traceDriven {
		measurement = &dynamics.TraceMeasurement{
			RequestsPerUserPerHour: opt.traceRate,
			WindowS:                float64(opt.checkpointMin) * 60,
		}
		measureDesc = fmt.Sprintf("trace-driven, %.0f requests/user/hour", opt.traceRate)
		if opt.threshold > 0 {
			trigger = &dynamics.TraceTrigger{Window: opt.triggerWindow, Degradation: opt.threshold}
		}
	} else if opt.threshold > 0 {
		trigger = dynamics.ThresholdTrigger{Degradation: opt.threshold}
	}
	type timeline struct {
		timeMin  []float64
		hit      []float64
		replaced []bool
		serve    []cachesim.EventResult
		count    int
		extra    string
	}
	var tl timeline
	if opt.shards > 1 {
		cfg := shard.Config{
			Instance:      ins,
			Capacities:    caps,
			Tracks:        []dynamics.Track{{Algorithm: alg, Trigger: trigger}},
			DurationMin:   opt.durationMin,
			CheckpointMin: opt.checkpointMin,
			SlotS:         5,
			Realizations:  opt.realizations,
			Mode:          mode,
			Shards:        opt.shards,
		}
		if opt.traceDriven {
			// Sharded trace-driven serving: each cell synthesizes its owned
			// users' arrivals and serves them; the steps then carry the
			// aggregated per-window serving stats.
			cfg.Trace = &shard.TraceConfig{
				RequestsPerUserPerHour: opt.traceRate,
				WindowS:                float64(opt.checkpointMin) * 60,
			}
		}
		res, err := shard.Run(cfg, src)
		if err != nil {
			return err
		}
		for _, s := range res.Steps {
			tl.timeMin = append(tl.timeMin, s.TimeMin)
			tl.hit = append(tl.hit, s.HitRatio[0])
			tl.replaced = append(tl.replaced, s.Replaced[0])
			if opt.traceDriven {
				tl.serve = append(tl.serve, s.Serve[0])
			}
		}
		tl.count = res.Replacements[0]
		tl.extra = fmt.Sprintf("shards\t%d cells, %d handoffs, %d grows\n", res.Cells, res.Handoffs, res.Grows)
	} else {
		res, err := dynamics.Run(dynamics.Config{
			Instance:      ins,
			Capacities:    caps,
			Tracks:        []dynamics.Track{{Algorithm: alg, Trigger: trigger}},
			DurationMin:   opt.durationMin,
			CheckpointMin: opt.checkpointMin,
			SlotS:         5,
			Realizations:  opt.realizations,
			Mode:          mode,
			Measurement:   measurement,
		}, src)
		if err != nil {
			return err
		}
		for _, s := range res.Steps {
			tl.timeMin = append(tl.timeMin, s.TimeMin)
			tl.hit = append(tl.hit, s.HitRatio[0])
			tl.replaced = append(tl.replaced, s.Replaced[0])
		}
		tl.count = res.Replacements[0]
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "algorithm\t%s\n", alg.Name())
	fmt.Fprintf(tw, "scenario\tM=%d K=%d I=%d\n", ins.NumServers(), ins.NumUsers(), ins.NumModels())
	fmt.Fprintf(tw, "policy\t%s; %s\n", trigger.Name(), measureDesc)
	if tl.extra != "" {
		fmt.Fprint(tw, tl.extra)
	}
	if tl.serve != nil {
		fmt.Fprintf(tw, "time (min)\thit ratio\trequests\tp50\tp99\treplaced\n")
		for i := range tl.timeMin {
			marker := ""
			if tl.replaced[i] {
				marker = "  <- replaced"
			}
			sv := tl.serve[i]
			fmt.Fprintf(tw, "%.0f\t%.4f\t%d\t%v\t%v\t%s\n", tl.timeMin[i], tl.hit[i],
				sv.Requests, sv.P50Latency.Round(1_000_000), sv.P99Latency.Round(1_000_000), marker)
		}
	} else {
		fmt.Fprintf(tw, "time (min)\thit ratio\treplaced\n")
		for i := range tl.timeMin {
			marker := ""
			if tl.replaced[i] {
				marker = "  <- replaced"
			}
			fmt.Fprintf(tw, "%.0f\t%.4f\t%s\n", tl.timeMin[i], tl.hit[i], marker)
		}
	}
	fmt.Fprintf(tw, "replacements\t%d\n", tl.count)
	return tw.Flush()
}
