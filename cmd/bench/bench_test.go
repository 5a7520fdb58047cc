package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// toyWorkloads are the benchmark's workloads shrunk to a fraction of a
// second each: same layers, same checks, toy dimensions.
func toyWorkloads() []workload {
	d := loraDeployment{
		Servers:          4,
		Users:            200,
		Models:           16,
		FoundationParams: 1_000_000_000,
		ActiveProb:       0.04,
		BackhaulBps:      1e9,
		CapacityBytes:    3 << 30,
		Realizations:     2,
	}
	f := d
	f.Servers, f.Users, f.Models = 9, 150, 40
	f.BackhaulBps, f.CapacityBytes = 1e8, 2_060_000_000
	return []workload{
		placePaper(placeParams{LibrarySeed: 1, PoolPerFamily: 10, Models: 9, Servers: 4, Users: 10, CapacityBytes: 1_000_000_000, BackhaulBps: 1e9, Epsilon: 0.1, MaxCombos: 1 << 20, Realizations: 20}),
		mobilityFading(d),
		serveSharded(serveParams{Deployment: d, Shards: 4, RequestsPerUserPerHour: 20}),
		faultChurn(faultParams{Deployment: f, PDegrade: 0.1, PFail: 0.05, PRecover: 0.25, MinBytes: 2_010_000_000, MaxBytes: 2_050_000_000}),
	}
}

// benchmarkFile is BENCHMARK.json's layout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads and
// metrics the command emits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	ws := allWorkloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), code %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		b := bf.EndToEnd[i]
		if b.Name != d.name || b.Unit != d.unit {
			t.Errorf("end-to-end %d: file has %s %s, code %s %s", i, b.Name, b.Unit, d.name, d.unit)
		}
		if b.Better != "lower" && b.Better != "higher" || b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s: better %q bound %v", b.Name, b.Better, b.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if p := bf.PerLayer[i]; p.Name != d.name || p.Unit != d.unit {
			t.Errorf("per-layer %d: file has %s %s, code %s %s", i, p.Name, p.Unit, d.name, d.unit)
		}
	}
}

func runToy(t *testing.T, w workload, seed uint64, trace bool) (*workloadReport, *tracer) {
	t.Helper()
	rep, tr, err := runWorkload(w, options{seed: seed, trace: trace})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", w.name, seed, rep.Failed, rep.Attempted, rep.Failures)
	}
	if rep.Samples != qualityOps {
		t.Fatalf("%s: %d timed ops with -seconds 0, want %d", w.name, rep.Samples, qualityOps)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(rep.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", w.name, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v, want a finite value in %s", w.name, d.name, m, d.unit)
		}
	}
	return rep, tr
}

// TestWorkloadsToyScale runs every workload at toy scale: every metric is
// emitted with its unit and finite, the seed alone fixes the deterministic
// metrics, and the traced spans reconcile per op.
func TestWorkloadsToyScale(t *testing.T) {
	for _, w := range toyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			a, _ := runToy(t, w, 1, false)
			b, _ := runToy(t, w, 1, false)
			c, _ := runToy(t, w, 2, false)
			for _, name := range []string{"hit_ratio", "bytes_per_user"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs across same-seed runs: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			if a.Metrics["hit_ratio"] == c.Metrics["hit_ratio"] {
				t.Errorf("hit_ratio %v did not change with the seed", a.Metrics["hit_ratio"])
			}
			for _, name := range []string{"setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "bytes_per_user"} {
				if a.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, a.Metrics[name].Value)
				}
			}

			p, tr := runToy(t, w, 1, true)
			q, _ := runToy(t, w, 1, true)
			r, _ := runToy(t, w, 2, true)
			deterministic := []string{"cachesim.request_p50_s", "cachesim.request_p99_s", "cachesim.requests_per_op",
				"placement.hit_ratio.spec", "placement.repairs_per_op", "memprof.reach_bytes"}
			for _, name := range deterministic {
				if p.Metrics[name] != q.Metrics[name] {
					t.Errorf("%s differs across same-seed runs: %v vs %v", name, p.Metrics[name], q.Metrics[name])
				}
			}
			if w.name == "serve-sharded" && p.Metrics["cachesim.request_p99_s"] == r.Metrics["cachesim.request_p99_s"] {
				t.Errorf("request p99 %v did not change with the seed", p.Metrics["cachesim.request_p99_s"])
			}
			worst, err := reconcile(tr.spans)
			if err != nil || worst > 0.01 {
				t.Errorf("spans do not reconcile: worst %v, %v", worst, err)
			}
			ops := map[int]bool{}
			for _, s := range tr.spans {
				ops[s.Op] = true
			}
			if !ops[setupOp] || len(ops) < qualityOps/2 {
				t.Errorf("spans cover %d ops (set-up included: %v), want the set-up and every traced op", len(ops), ops[setupOp])
			}
		})
	}
}

// TestSelfTimes checks the self-time definition on overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Op: 1, Name: "b", Start: 20, End: 50},
		{ID: 3, Parent: 0, Op: 1, Name: "c", Start: 60, End: 70},
		{ID: 4, Parent: 3, Op: 1, Name: "d", Start: 62, End: 66},
	}
	want := []int64{50, 20, 30, 6, 4}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
	if worst, err := reconcile(spans); err != nil || worst != 0 {
		t.Errorf("reconcile: worst %v, %v", worst, err)
	}
	spans[4].End = 90 // a child outliving its parent breaks the accounting
	if _, err := reconcile(spans); err == nil {
		t.Error("reconcile accepted a child span outside its parent")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q != (quartet{q1: 2.75, median: 5.5, q3: 8.25}) {
		t.Errorf("quartiles %+v, want {2.75 5.5 8.25}", q)
	}
	q = quartiles([]float64{3, 1, 2})
	if q != (quartet{q1: 1, median: 2, q3: 3}) {
		t.Errorf("quartiles %+v, want {1 2 3}", q)
	}
}

// TestJudge covers compare's verdicts.
func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	lower := bound{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	cases := []struct {
		label          string
		parent, change []float64
		b              bound
		want           string
	}{
		{"faster", parent, scaled(0.8), lower, "better"},
		{"slower", parent, scaled(1.2), lower, "worse"},
		{"unchanged", parent, parent, lower, "same"},
		{"more throughput", parent, scaled(1.2), higher, "better"},
		{"less throughput", parent, scaled(0.8), higher, "worse"},
		{"noisy", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, lower, "unresolved"},
		{"too few pairs to win", parent[:3], scaled(0.8)[:3], lower, "same"},
	}
	for _, tc := range cases {
		if got := judge(tc.parent, tc.change, tc.b).call; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.label, got, tc.want)
		}
	}
}

// TestCompareCommand runs compare end to end on two report files.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := dir + "/" + name
		rep := report{Workloads: []workloadReport{{Name: "toy", result: result{Metrics: map[string]metric{"op_p50_ms": {Value: p50, Unit: "ms"}}}}}}
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out strings.Builder
	err := compare([]string{"-bench", "../../BENCHMARK.json", write("a1", 10), write("b1", 13), write("a2", 10.2), write("b2", 13.1)}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "op_p50_ms") || !strings.Contains(out.String(), "worse") {
		t.Errorf("compare output lacks the worse op_p50_ms row:\n%s", out.String())
	}
	if err := compare([]string{"-bench", "../../BENCHMARK.json", write("a3", 1)}, &out); err == nil {
		t.Error("compare accepted an unpaired report")
	}
}

// TestRunRejectsBadFlags covers the command's argument checks.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"extra"}} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed a result: %s", args, out.String())
		}
	}
}
