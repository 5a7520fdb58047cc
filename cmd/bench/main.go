// Command bench is the repository benchmark: four closed-loop workloads over
// the placement, mobility, scenario, simulation, shard and serving layers,
// each built from -seed, timed for -seconds, and checked for correctness.
//
// Usage:
//
//	bench -workload NAME|all -seed N -seconds S -trace 0|1 [-out report.json] [-spans spans.json]
//	bench compare [-bench BENCHMARK.json] PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
//
// Every metric prints as one "workload metric value unit" line; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. -trace 0 reports the end-to-end metrics,
// -trace 1 the per-layer metrics from spans recorded around each layer
// call. The command exits non-zero when any correctness check fails. See
// README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"trimcaching/internal/memprof"
	"trimcaching/internal/stats"
)

const (
	// qualityOps is how many timed ops hit_ratio and bytes_per_user are
	// taken over: a fixed prefix, so both are a function of the seed alone.
	// Every run times at least this many ops.
	qualityOps = 100
	// maxOps bounds a run's op count (and the fault schedule's length).
	maxOps = 10000
	// opTail is the percentile op_tail_ms reports: the highest the
	// qualityOps minimum leaves ten ops beyond, fixed so that every run
	// reports the same percentile.
	opTail = 1 - 10.0/qualityOps
	// op_tail_ms and ops_per_s are medians over opBlocks blocks of
	// consecutive timed ops of each block's value, so that a host slowdown
	// of a second or two, which covers one or two blocks, does not move
	// them. The qualityOps minimum leaves at least ten ops per block.
	opBlocks = 10
	// Set-up repeats at least minSetups times and until set-up time reaches
	// a setupShare of the timed run, at most maxSetups times; setup_s is the
	// median. The budget spreads even a millisecond set-up over seconds,
	// so that a short host slowdown covers few of the repetitions.
	minSetups  = 5
	maxSetups  = 2000
	setupShare = 0.1
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"hit_ratio", "ratio"},
	{"bytes_per_user", "B"},
}

// perLayer are the metrics a -trace 1 run reports for every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"mobility.advance_ms_p50", "ms"},
	{"mobility.advance_share", "ratio"},
	{"mobility.user_slots_per_op", "1/op"},
	{"scenario.refresh_ms_p50", "ms"},
	{"scenario.refresh_ms_tail", "ms"},
	{"scenario.refresh_share", "ratio"},
	{"scenario.fault_ms_p50", "ms"},
	{"scenario.fault_events_per_op", "1/op"},
	{"scenario.servers_down_mean", "count"},
	{"scenario.generate_ms_p50", "ms"},
	{"placement.spec_ms_p50", "ms"},
	{"placement.spec_ms_tail", "ms"},
	{"placement.spec_share", "ratio"},
	{"placement.gen_ms_p50", "ms"},
	{"placement.independent_ms_p50", "ms"},
	{"placement.hit_ratio.spec", "ratio"},
	{"placement.hit_ratio.gen", "ratio"},
	{"placement.hit_ratio.independent", "ratio"},
	{"placement.repair_ms_p50", "ms"},
	{"placement.repair_ms_tail", "ms"},
	{"placement.repairs_per_op", "1/op"},
	{"placement.repair_changed_frac", "ratio"},
	{"placement.replace_ms_p50", "ms"},
	{"placement.initial_solve_ms", "ms"},
	{"sim.evaluate_ms_p50", "ms"},
	{"sim.evaluate_share", "ratio"},
	{"sim.measure_ms_p50", "ms"},
	{"sim.measure_share", "ratio"},
	{"sim.realizations_per_op", "1/op"},
	{"dynamics.new_engine_ms", "ms"},
	{"dynamics.trigger_fires_per_op", "1/op"},
	{"shard.new_engine_ms", "ms"},
	{"shard.checkpoint_self_ms_p50", "ms"},
	{"shard.handoffs_per_op", "1/op"},
	{"shard.grows", "count"},
	{"shard.repair_ms_per_op", "ms"},
	{"cachesim.requests_per_op", "1/op"},
	{"cachesim.requests_per_s", "1/s"},
	{"cachesim.direct_frac", "ratio"},
	{"cachesim.relay_frac", "ratio"},
	{"cachesim.cloud_frac", "ratio"},
	{"cachesim.uncovered_frac", "ratio"},
	{"cachesim.qos_hits_per_op", "1/op"},
	{"cachesim.peak_concurrency", "count"},
	{"cachesim.request_p50_s", "s"},
	{"cachesim.request_p99_s", "s"},
	{"memprof.reach_bytes", "B"},
	{"memprof.rank_bytes", "B"},
	{"memprof.rate_bytes", "B"},
	{"memprof.workload_bytes", "B"},
	{"memprof.topology_bytes", "B"},
	{"memprof.evaluator_bytes", "B"},
	{"memprof.measurement_bytes", "B"},
	{"memprof.scratch_bytes", "B"},
	{"memprof.coordinator_bytes", "B"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.allocs_per_op", "1/op"},
	{"runtime.heap_alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles_per_op", "1/op"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans_per_op", "1/op"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadReport is one workload's part of the -out report.
type workloadReport struct {
	Name   string `json:"name"`
	Params any    `json:"params"`
	result
	// Samples is the timed op count; TailPercentile the percentile
	// op_tail_ms reports.
	Samples        int      `json:"samples"`
	TailPercentile float64  `json:"tail_percentile"`
	SetupRuns      int      `json:"setup_runs"`
	Failures       []string `json:"failures,omitempty"`
}

// stamp identifies the build and host a report was measured on.
type stamp struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	Go         string `json:"go"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

type report struct {
	Stamp     stamp            `json:"stamp"`
	Workloads []workloadReport `json:"workloads"`
}

type options struct {
	seed    uint64
	seconds int
	trace   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := compare(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
		return 0
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := fs.Uint64("seed", 1, "seed every deployment and input is drawn from")
	seconds := fs.Int("seconds", 20, "seconds of timed ops per workload (at least 100 ops run)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "write the report (stamp, parameters, metrics) as JSON to this file")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench -workload NAME|all -seed N -seconds S -trace 0|1 [-out FILE] [-spans FILE]")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *name == "all" {
		return runAll(o, *out, *spansOut, stdout, stderr)
	}
	var w *workload
	for _, c := range allWorkloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	// Every workload runs on one CPU: with a second one, the parallel
	// paths and the garbage collector wait on a CPU whose availability
	// varies with host load, and run-to-run spreads grew from 3-4% to
	// 16-18% (see README.md).
	runtime.GOMAXPROCS(workers)
	rep, tr, err := runWorkload(*w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printMetrics(stdout, rep)
	for _, f := range rep.Failures {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, f)
	}
	if *spansOut != "" && o.trace {
		if err := tr.writeSpans(*spansOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeReport(*out, report{Stamp: newStamp(o), Workloads: []workloadReport{*rep}}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runWorkload sets up the workload, times its ops and derives the metrics.
func runWorkload(w workload, o options) (*workloadReport, *tracer, error) {
	tr := newTracer(o.trace)
	rep := &workloadReport{Name: w.name, Params: w.params}

	// Set-up runs several times from the same seed; the last deployment is
	// the one measured, and only its spans are kept.
	var r runner
	var setups []float64
	var spent time.Duration
	budget := time.Duration(setupShare * float64(o.seconds) * float64(time.Second))
	for len(setups) < minSetups || (spent < budget && len(setups) < maxSetups) {
		r = nil
		tr.spans = tr.spans[:0]
		runtime.GC()
		tr.startOp(setupOp, true)
		start := time.Now()
		err := tr.call("setup", func() error {
			var err error
			r, err = w.setup(o.seed, tr)
			return err
		})
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	rep.SetupRuns = len(setups)

	fail := func(i int, err error) {
		rep.Failed++
		rep.Failures = append(rep.Failures, fmt.Sprintf("op %d: %v", i, err))
	}
	// The warm-up op absorbs lazy set-up (rank and flip indices, session
	// buffers) before timing.
	runtime.GC()
	tr.startOp(0, false)
	rep.Attempted++
	if _, err := r.op(0); err != nil {
		fail(0, err)
	} else if err := r.check(0); err != nil {
		fail(0, err)
	}
	runtime.GC()

	var (
		durs, tracedDurs []float64 // ms
		hitNum, hitDen   float64
		plainDurs        []float64 // untraced ops, ms
		rtSums           [3]uint64 // the samples' deltas over untraced ops
		fp               memprof.Footprint
		fpUsers          int
	)
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	var before, after [3]uint64
	read := func(dst *[3]uint64) {
		metrics.Read(samples)
		for x := range samples {
			dst[x] = samples[x].Value.Uint64()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 1; rep.Failed == 0 && i <= maxOps; i++ {
		if i > qualityOps && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
		traced := o.trace && i%2 == 0
		tr.startOp(i, traced)
		var q quality
		var err error
		read(&before)
		t0 := time.Now()
		if traced {
			err = tr.call("op", func() error {
				var err error
				q, err = r.op(i)
				return err
			})
		} else {
			q, err = r.op(i)
		}
		d := time.Since(t0)
		read(&after)
		rep.Attempted++
		if err != nil {
			fail(i, err)
			break
		}
		ms := float64(d.Nanoseconds()) / 1e6
		durs = append(durs, ms)
		if traced {
			tracedDurs = append(tracedDurs, ms)
		} else {
			plainDurs = append(plainDurs, ms)
			for x := range rtSums {
				rtSums[x] += after[x] - before[x]
			}
		}
		if i <= qualityOps {
			hitNum += q.num
			hitDen += q.den
		}
		if err := r.check(i); err != nil {
			fail(i, err)
		}
		if i == qualityOps {
			fp, fpUsers = r.footprint()
		}
	}
	runtime.ReadMemStats(&ms1)
	peakMB, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}

	// End-of-run checks count as one more attempted op.
	tr.startOp(maxOps+1, false)
	rep.Attempted++
	if err := r.finish(); err != nil {
		fail(maxOps+1, err)
	}
	rep.Correct = rep.Failed == 0
	rep.Samples = len(durs)
	rep.TailPercentile = opTail
	if len(durs) == 0 {
		return rep, tr, nil
	}

	total := sum(durs) // ms
	vals := map[string]float64{}
	if !o.trace {
		vals["setup_s"] = stats.Quantile(setups, 0.5)
		vals["op_p50_ms"] = stats.Quantile(durs, 0.5)
		vals["op_tail_ms"] = blockMedian(durs, func(b []float64) float64 { return stats.Quantile(b, opTail) })
		vals["ops_per_s"] = blockMedian(durs, func(b []float64) float64 { return float64(len(b)) / (sum(b) / 1e3) })
		vals["hit_ratio"] = ratio(hitNum, hitDen)
		vals["bytes_per_user"] = ratio(float64(fp.Total()), float64(fpUsers))
		rep.Metrics = collect(endToEnd, vals)
		return rep, tr, nil
	}

	for _, d := range perLayer {
		vals[d.name] = 0
	}
	r.layers(vals, len(durs))
	if err := spanMetrics(vals, tr.spans, tracedDurs); err != nil {
		rep.Failed++
		rep.Correct = false
		rep.Failures = append(rep.Failures, err.Error())
	}
	vals["cachesim.requests_per_s"] = vals["cachesim.requests_per_op"] * float64(len(durs)) / (total / 1e3)
	footprintMetrics(vals, fp)
	plain := float64(len(plainDurs))
	vals["runtime.peak_rss_mb"] = peakMB
	vals["runtime.allocs_per_op"] = float64(rtSums[0]) / plain
	vals["runtime.heap_alloc_bytes_per_op"] = float64(rtSums[1]) / plain
	vals["runtime.gc_cycles_per_op"] = float64(rtSums[2]) / plain
	vals["runtime.gc_pause_ms_per_op"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(len(durs))
	vals["trace.overhead_frac"] = stats.Quantile(tracedDurs, 0.5)/stats.Quantile(plainDurs, 0.5) - 1
	rep.Metrics = collect(perLayer, vals)
	return rep, tr, nil
}

// collect orders vals by defs and attaches units; a value the code failed
// to compute is a bug, reported as NaN so the run fails loudly.
func collect(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			v = math.NaN()
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// blockMedian is the median of f over opBlocks blocks of consecutive op
// times; a run with fewer ops than blocks has one op per block.
func blockMedian(durs []float64, f func([]float64) float64) float64 {
	n := min(opBlocks, len(durs))
	vals := make([]float64, n)
	for b := range vals {
		vals[b] = f(durs[len(durs)*b/n : len(durs)*(b+1)/n])
	}
	return stats.Quantile(vals, 0.5)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailQuantile is the highest of the usual percentiles that leaves at
// least ten of n samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.98, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func printMetrics(w io.Writer, rep *workloadReport) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", rep.Name, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s ops %d tail_percentile %g setup_runs %d attempted %d failed %d\n",
		rep.Name, rep.Samples, 100*rep.TailPercentile, rep.SetupRuns, rep.Attempted, rep.Failed)
}

func newStamp(o options) stamp {
	s := stamp{
		Commit:     "unknown",
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
	if o.trace {
		s.Trace = 1
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value == "true"
			}
		}
	}
	return s
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in its own process, so each one's peak RSS
// is its own, and merges their reports.
func runAll(o options, out, spansOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	merged := report{Stamp: newStamp(o)}
	total := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range allWorkloads() {
		path := filepath.Join(dir, w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(merged.Stamp.Trace), "-out", path}
		if spansOut != "" {
			ext := filepath.Ext(spansOut)
			args = append(args, "-spans", strings.TrimSuffix(spansOut, ext)+"."+w.name+ext)
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		// Pass the metric lines through; the per-workload JSON line is
		// replaced by the merged one below.
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		for _, l := range lines[:max(len(lines)-1, 0)] {
			fmt.Fprintln(stdout, l)
		}
		var rep report
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rep)
		}
		if err != nil || len(rep.Workloads) != 1 {
			fmt.Fprintf(stderr, "bench: %s: no report\n", w.name)
			total.Correct = false
			code = 1
			continue
		}
		wr := rep.Workloads[0]
		merged.Workloads = append(merged.Workloads, wr)
		total.Correct = total.Correct && wr.Correct
		total.Attempted += wr.Attempted
		total.Failed += wr.Failed
		for n, m := range wr.Metrics {
			total.Metrics[w.name+"/"+n] = m
		}
	}
	if out != "" {
		if err := writeReport(out, merged); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		code = 1
	}
	return code
}
