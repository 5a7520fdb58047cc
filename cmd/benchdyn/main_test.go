package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeRunEmitsValidReport drives the whole benchmark pipeline at toy
// scale and checks the emitted artifact parses and passes the documented
// schema (run itself validates before writing; this pins the contract from
// the outside too).
func TestSmokeRunEmitsValidReport(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke benchmark run in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	if err := run([]string{"-smoke", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "refresh") {
		t.Fatalf("summary line missing: %q", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateReport(data); err != nil {
		t.Fatalf("emitted report fails schema: %v", err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scenario.Models <= 0 || rep.Measurement.Realizations <= 0 {
		t.Fatalf("degenerate smoke report: %+v", rep)
	}
}

// TestBlockedSpeedGate pins when the smoke speed gate may fail a run: only
// on the fastest of at least speedGateRounds rounds, and only beyond the
// ×1.25 margin.
func TestBlockedSpeedGate(t *testing.T) {
	const us = time.Microsecond
	cases := []struct {
		blocked, perReal time.Duration
		rounds           int
		fail             bool
	}{
		{135 * us, 107 * us, 1, false}, // one round is noise
		{135 * us, 107 * us, speedGateRounds - 1, false},
		{135 * us, 107 * us, speedGateRounds, true},
		{125 * us, 100 * us, speedGateRounds, false}, // at the margin
		{80 * us, 100 * us, speedGateRounds, false},
	}
	for _, c := range cases {
		err := blockedSpeedGate(c.blocked, c.perReal, c.rounds)
		if (err != nil) != c.fail {
			t.Errorf("blockedSpeedGate(%v, %v, %d) = %v, want failure %v", c.blocked, c.perReal, c.rounds, err, c.fail)
		}
	}
}

// TestValidateReportRejectsBrokenSections pins the failure modes the smoke
// job exists to catch: missing sections, zero-op phases, and non-finite
// speedups.
func TestValidateReportRejectsBrokenSections(t *testing.T) {
	good := []byte(`{
		"scenario": {"servers": 1, "users": 1, "models": 1, "checkpointMin": 1, "slotS": 5},
		"refresh": {"ops": 2, "rebuild_ns_per_op": 10, "incremental_ns_per_op": 10, "speedup": 1},
		"replace": {"ops": 2, "rebuild_ns_per_op": 10, "incremental_ns_per_op": 10, "speedup": 1},
		"timeline_end_to_end": {"ops": 2, "rebuild_ns_per_op": 10, "incremental_ns_per_op": 10, "speedup": 1},
		"measurement": {"ops": 2, "realizations": 4, "block_size": 4, "fused_ns_per_op": 10,
			"per_realization_ns_per_op": 10, "unfused_ns_per_op": 10, "speedup": 1, "blocked_speedup": 1},
		"resolve": {"ops": 2, "heap_rebuild_ns_per_op": 10, "persistent_ns_per_op": 10, "speedup": 1,
			"small_delta_stride": 100, "small_delta_heap_rebuild_ns_per_op": 10,
			"small_delta_persistent_ns_per_op": 10, "small_delta_speedup": 1},
		"speedup": 1,
		"speedup_definition": "x"
	}`)
	if err := validateReport(good); err != nil {
		t.Fatalf("baseline report must validate, got %v", err)
	}
	mutate := func(fn func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		fn(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"missing section": mutate(func(m map[string]any) { delete(m, "measurement") }),
		"zero ops":        mutate(func(m map[string]any) { m["refresh"].(map[string]any)["ops"] = 0 }),
		"zero duration":   mutate(func(m map[string]any) { m["resolve"].(map[string]any)["persistent_ns_per_op"] = 0 }),
		"zero speedup":    mutate(func(m map[string]any) { m["speedup"] = 0 }),
		"missing field":   mutate(func(m map[string]any) { delete(m["replace"].(map[string]any), "speedup") }),
		"non-numeric":     mutate(func(m map[string]any) { m["timeline_end_to_end"].(map[string]any)["speedup"] = "fast" }),
		"no definition":   mutate(func(m map[string]any) { delete(m, "speedup_definition") }),
		"no small delta":  mutate(func(m map[string]any) { delete(m["resolve"].(map[string]any), "small_delta_speedup") }),
		"1-stride":        mutate(func(m map[string]any) { m["resolve"].(map[string]any)["small_delta_stride"] = 1 }),
		"no block size":   mutate(func(m map[string]any) { delete(m["measurement"].(map[string]any), "block_size") }),
		"no per-realization row": mutate(func(m map[string]any) {
			delete(m["measurement"].(map[string]any), "per_realization_ns_per_op")
		}),
		"zero blocked speedup": mutate(func(m map[string]any) {
			m["measurement"].(map[string]any)["blocked_speedup"] = 0
		}),
	}
	for name, data := range cases {
		if err := validateReport(data); err == nil {
			t.Errorf("%s: validation must fail", name)
		}
	}
}

// TestValidateShardReport pins the BENCH_shard.json schema contract.
func TestValidateShardReport(t *testing.T) {
	good := []byte(`{
		"scenario": {"servers": 4, "users": 100, "models": 8, "checkpointMin": 10, "slotS": 5, "realizations": 2},
		"unsharded": {"shards": 0, "workers": 1, "checkpoints": 2, "checkpoint_ns_per_op": 10,
			"throughput_users_per_s": 5, "speedup": 1, "hit_ratio_mean": 0.5, "handoffs": 0, "grows": 0},
		"sharded": [
			{"shards": 1, "workers": 1, "checkpoints": 2, "checkpoint_ns_per_op": 10,
			 "throughput_users_per_s": 5, "speedup": 1, "hit_ratio_mean": 0.5, "handoffs": 0, "grows": 0},
			{"shards": 2, "workers": 1, "checkpoints": 2, "checkpoint_ns_per_op": 5,
			 "throughput_users_per_s": 10, "speedup": 2, "hit_ratio_mean": 0.45, "handoffs": 3, "grows": 0}
		],
		"multicore": {
			"workers": 2,
			"unsharded": {"shards": 0, "workers": 2, "checkpoints": 2, "checkpoint_ns_per_op": 8,
				"throughput_users_per_s": 6, "speedup": 1.25, "hit_ratio_mean": 0.5, "handoffs": 0, "grows": 0},
			"sharded": [
				{"shards": 2, "workers": 2, "checkpoints": 2, "checkpoint_ns_per_op": 4,
				 "throughput_users_per_s": 12, "speedup": 2.5, "hit_ratio_mean": 0.45, "handoffs": 3, "grows": 0}
			]
		},
		"scale": [
			{"users": 2000, "servers": 16, "models": 24, "shards": 4, "workers": 2, "checkpoints": 2,
			 "checkpoint_ns_per_op": 100, "throughput_users_per_s": 20, "hit_ratio_mean": 0.9,
			 "handoffs": 5, "grows": 0, "bytes_per_user": 4700.5, "allocs_per_checkpoint": 700,
			 "footprint_total_bytes": 45,
			 "footprint": {"reach_bytes": 5, "rank_bytes": 5, "rate_bytes": 5, "workload_bytes": 5,
				"topology_bytes": 5, "evaluator_bytes": 5, "measurement_bytes": 5, "scratch_bytes": 5,
				"coordinator_bytes": 5},
			 "peak_rss_bytes": 1000}
		],
		"speedup": 2,
		"speedup_definition": "x"
	}`)
	if err := validateShardReport(good); err != nil {
		t.Fatalf("baseline shard report must validate, got %v", err)
	}
	mutate := func(fn func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		fn(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"no unsharded":  mutate(func(m map[string]any) { delete(m, "unsharded") }),
		"empty sharded": mutate(func(m map[string]any) { m["sharded"] = []any{} }),
		"zero hit":      mutate(func(m map[string]any) { m["unsharded"].(map[string]any)["hit_ratio_mean"] = 0 }),
		"zero speedup": mutate(func(m map[string]any) {
			m["sharded"].([]any)[1].(map[string]any)["speedup"] = 0
		}),
		"missing run field": mutate(func(m map[string]any) {
			delete(m["sharded"].([]any)[0].(map[string]any), "checkpoint_ns_per_op")
		}),
		"no definition": mutate(func(m map[string]any) { delete(m, "speedup_definition") }),
		"no workers": mutate(func(m map[string]any) {
			delete(m["unsharded"].(map[string]any), "workers")
		}),
		"no multicore": mutate(func(m map[string]any) { delete(m, "multicore") }),
		"single-core multicore": mutate(func(m map[string]any) {
			m["multicore"].(map[string]any)["workers"] = 1
		}),
		"empty multicore sharded": mutate(func(m map[string]any) {
			m["multicore"].(map[string]any)["sharded"] = []any{}
		}),
		"no scale":    mutate(func(m map[string]any) { delete(m, "scale") }),
		"empty scale": mutate(func(m map[string]any) { m["scale"] = []any{} }),
		"missing bytes_per_user": mutate(func(m map[string]any) {
			delete(m["scale"].([]any)[0].(map[string]any), "bytes_per_user")
		}),
		"zero bytes_per_user": mutate(func(m map[string]any) {
			m["scale"].([]any)[0].(map[string]any)["bytes_per_user"] = 0
		}),
		"non-numeric bytes_per_user": mutate(func(m map[string]any) {
			m["scale"].([]any)[0].(map[string]any)["bytes_per_user"] = "big"
		}),
		"missing allocs_per_checkpoint": mutate(func(m map[string]any) {
			delete(m["scale"].([]any)[0].(map[string]any), "allocs_per_checkpoint")
		}),
		"zero allocs_per_checkpoint": mutate(func(m map[string]any) {
			m["scale"].([]any)[0].(map[string]any)["allocs_per_checkpoint"] = 0
		}),
		"non-numeric allocs_per_checkpoint": mutate(func(m map[string]any) {
			m["scale"].([]any)[0].(map[string]any)["allocs_per_checkpoint"] = "few"
		}),
		"missing footprint component": mutate(func(m map[string]any) {
			fp := m["scale"].([]any)[0].(map[string]any)["footprint"].(map[string]any)
			delete(fp, "coordinator_bytes")
		}),
		"footprint total desync": mutate(func(m map[string]any) {
			m["scale"].([]any)[0].(map[string]any)["footprint_total_bytes"] = 46
		}),
		"missing peak rss": mutate(func(m map[string]any) {
			delete(m["scale"].([]any)[0].(map[string]any), "peak_rss_bytes")
		}),
		"single-worker scale row": mutate(func(m map[string]any) {
			m["scale"].([]any)[0].(map[string]any)["workers"] = 1
		}),
	}
	for name, data := range cases {
		if err := validateShardReport(data); err == nil {
			t.Errorf("%s: validation must fail", name)
		}
	}
}

func TestValidateServeReport(t *testing.T) {
	good := []byte(`{
		"scenario": {"servers": 4, "users": 100, "models": 8, "checkpointMin": 10, "slotS": 5,
			"requestsPerUserPerHour": 6, "windowS": 600},
		"unsharded": {"shards": 0, "workers": 1, "checkpoints": 2, "checkpoint_ns_per_op": 10,
			"requests": 40, "throughput_requests_per_s": 5, "speedup": 1, "hit_ratio_mean": 0.5,
			"p50_latency_ns": 100, "p95_latency_ns": 200, "p99_latency_ns": 300, "handoffs": 0},
		"sharded": [
			{"shards": 1, "workers": 1, "checkpoints": 2, "checkpoint_ns_per_op": 10,
			 "requests": 40, "throughput_requests_per_s": 5, "speedup": 1, "hit_ratio_mean": 0.5,
			 "p50_latency_ns": 100, "p95_latency_ns": 200, "p99_latency_ns": 300, "handoffs": 0},
			{"shards": 2, "workers": 1, "checkpoints": 2, "checkpoint_ns_per_op": 5,
			 "requests": 40, "throughput_requests_per_s": 10, "speedup": 2, "hit_ratio_mean": 0.45,
			 "p50_latency_ns": 100, "p95_latency_ns": 200, "p99_latency_ns": 300, "handoffs": 3}
		],
		"multicore": {
			"workers": 2,
			"unsharded": {"shards": 0, "workers": 2, "checkpoints": 2, "checkpoint_ns_per_op": 8,
				"requests": 40, "throughput_requests_per_s": 6, "speedup": 1.25, "hit_ratio_mean": 0.5,
				"p50_latency_ns": 100, "p95_latency_ns": 200, "p99_latency_ns": 300, "handoffs": 0},
			"sharded": [
				{"shards": 2, "workers": 2, "checkpoints": 2, "checkpoint_ns_per_op": 4,
				 "requests": 40, "throughput_requests_per_s": 12, "speedup": 2.5, "hit_ratio_mean": 0.45,
				 "p50_latency_ns": 100, "p95_latency_ns": 200, "p99_latency_ns": 300, "handoffs": 3}
			]
		},
		"speedup": 2,
		"speedup_definition": "x"
	}`)
	if err := validateServeReport(good); err != nil {
		t.Fatalf("baseline serve report must validate, got %v", err)
	}
	mutate := func(fn func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		fn(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"no unsharded":  mutate(func(m map[string]any) { delete(m, "unsharded") }),
		"empty sharded": mutate(func(m map[string]any) { m["sharded"] = []any{} }),
		"zero requests": mutate(func(m map[string]any) { m["unsharded"].(map[string]any)["requests"] = 0 }),
		"zero throughput": mutate(func(m map[string]any) {
			m["unsharded"].(map[string]any)["throughput_requests_per_s"] = 0
		}),
		"zero speedup": mutate(func(m map[string]any) {
			m["sharded"].([]any)[1].(map[string]any)["speedup"] = 0
		}),
		"missing p99": mutate(func(m map[string]any) {
			delete(m["sharded"].([]any)[0].(map[string]any), "p99_latency_ns")
		}),
		"crossed quantiles": mutate(func(m map[string]any) {
			m["sharded"].([]any)[1].(map[string]any)["p95_latency_ns"] = 400
		}),
		"no rate": mutate(func(m map[string]any) {
			delete(m["scenario"].(map[string]any), "requestsPerUserPerHour")
		}),
		"no definition": mutate(func(m map[string]any) { delete(m, "speedup_definition") }),
		"no multicore":  mutate(func(m map[string]any) { delete(m, "multicore") }),
		"single-core multicore": mutate(func(m map[string]any) {
			m["multicore"].(map[string]any)["workers"] = 1
		}),
	}
	for name, data := range cases {
		if err := validateServeReport(data); err == nil {
			t.Errorf("%s: validation must fail", name)
		}
	}
}

// TestServeSmokeRunEmitsValidReport drives the trace-driven serving
// benchmark pipeline at toy scale end to end.
func TestServeSmokeRunEmitsValidReport(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke benchmark run in -short mode")
	}
	out := filepath.Join(t.TempDir(), "serve.json")
	var stdout bytes.Buffer
	if err := run([]string{"-smoke", "-serve", "-serveout", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateServeReport(data); err != nil {
		t.Fatalf("emitted serve report fails schema: %v", err)
	}
	var rep serveReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Sharded) != 2 || rep.Sharded[0].Shards != 1 || rep.Sharded[1].Shards != 2 {
		t.Fatalf("smoke serve shard counts wrong: %+v", rep.Sharded)
	}
	// Shards=1 serving is bit-identical to the unsharded engine: same
	// requests, same hit ratio, same quantiles.
	one, un := rep.Sharded[0], rep.Unsharded
	if one.Requests != un.Requests || one.HitRatioMean != un.HitRatioMean ||
		one.P50LatencyNs != un.P50LatencyNs || one.P99LatencyNs != un.P99LatencyNs {
		t.Errorf("shards=1 serving diverged from unsharded:\n%+v\nvs\n%+v", one, un)
	}
	// Global-user-keyed streams make the synthesized window partition-
	// invariant: every row serves the same request count.
	for i, r := range rep.Sharded {
		if r.Requests != un.Requests {
			t.Errorf("sharded[%d] served %d requests, unsharded %d; the window must partition exactly",
				i, r.Requests, un.Requests)
		}
	}
	// The multicore sweep replays the same timeline with a wider pool;
	// determinism makes its serving numbers bit-identical.
	if rep.Multicore.Unsharded.HitRatioMean != un.HitRatioMean {
		t.Errorf("multicore unsharded hit ratio %v differs from single-core %v",
			rep.Multicore.Unsharded.HitRatioMean, un.HitRatioMean)
	}
	for i, r := range rep.Multicore.Sharded {
		if r.HitRatioMean != rep.Sharded[i].HitRatioMean || r.P99LatencyNs != rep.Sharded[i].P99LatencyNs {
			t.Errorf("multicore sharded[%d] serving differs from single-core:\n%+v\nvs\n%+v",
				i, r, rep.Sharded[i])
		}
	}
}

// TestShardSmokeRunEmitsValidReport drives the shard benchmark pipeline at
// toy scale end to end.
func TestShardSmokeRunEmitsValidReport(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke benchmark run in -short mode")
	}
	out := filepath.Join(t.TempDir(), "shard.json")
	var stdout bytes.Buffer
	if err := run([]string{"-smoke", "-shard", "-shardout", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateShardReport(data); err != nil {
		t.Fatalf("emitted shard report fails schema: %v", err)
	}
	var rep shardReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Sharded) != 2 || rep.Sharded[0].Shards != 1 || rep.Sharded[1].Shards != 2 {
		t.Fatalf("smoke shard counts wrong: %+v", rep.Sharded)
	}
	// Shards=1 is the sharded coordinator on one whole-area cell: its
	// measured quality must reproduce the unsharded engine exactly.
	if rep.Sharded[0].HitRatioMean != rep.Unsharded.HitRatioMean {
		t.Errorf("shards=1 hit ratio %v differs from unsharded %v",
			rep.Sharded[0].HitRatioMean, rep.Unsharded.HitRatioMean)
	}
	// The multicore sweep replays the same timeline with a wider worker
	// pool; the determinism contract makes its quality bit-identical.
	if rep.Multicore.Workers < 2 {
		t.Errorf("multicore workers %d, want >= 2", rep.Multicore.Workers)
	}
	if rep.Multicore.Unsharded.HitRatioMean != rep.Unsharded.HitRatioMean {
		t.Errorf("multicore unsharded hit ratio %v differs from single-core %v",
			rep.Multicore.Unsharded.HitRatioMean, rep.Unsharded.HitRatioMean)
	}
	for i, r := range rep.Multicore.Sharded {
		if r.HitRatioMean != rep.Sharded[i].HitRatioMean {
			t.Errorf("multicore sharded[%d] hit ratio %v differs from single-core %v",
				i, r.HitRatioMean, rep.Sharded[i].HitRatioMean)
		}
	}
	if len(rep.Scale) != 1 {
		t.Fatalf("smoke scale rows = %d, want 1", len(rep.Scale))
	}
	sc := rep.Scale[0]
	if sc.Workers < 2 {
		t.Errorf("scale workers %d, want >= 2", sc.Workers)
	}
	if sc.BytesPerUser <= 0 || sc.AllocsPerCheckpoint <= 0 || sc.PeakRSSBytes <= 0 {
		t.Errorf("degenerate scale accounting: %+v", sc)
	}
	if sc.FootprintTotalBytes != sc.Footprint.Total() {
		t.Errorf("scale footprint total %d is not the component sum %d",
			sc.FootprintTotalBytes, sc.Footprint.Total())
	}
	if int64(sc.BytesPerUser*float64(sc.Users)+0.5) != sc.FootprintTotalBytes {
		t.Errorf("bytes_per_user %v inconsistent with footprint total %d over %d users",
			sc.BytesPerUser, sc.FootprintTotalBytes, sc.Users)
	}
}
