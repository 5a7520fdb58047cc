package main

// The scale section of BENCH_shard.json: one memory-accounted row per
// configured population, headlined by K = 1M users on a planned-grid
// deployment (shard.NewScaleBenchConfig — coordinator global instance,
// LayoutGrid servers). Unlike the comparison sweeps, a scale row has no
// unsharded baseline: at a million users the whole-area engine is the thing
// this repository exists to avoid building. What the row reports instead is
// what capacity planning needs — per-checkpoint latency and user
// throughput, bytes pinned per user with the full by-component footprint
// breakdown (the MemoryFootprint seam threaded up from the instances,
// evaluators, and cells), steady-state heap allocations per checkpoint
// (runtime Mallocs delta over the timed window: per-user coverage rows and
// cell ref lists still outgrowing their capacity, and cell grows; the worker
// pool adds 2 per parallel call), and the process's peak RSS.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"trimcaching/internal/memprof"
	"trimcaching/internal/rng"
	"trimcaching/internal/shard"
)

// scaleSpec is one scale row's configuration.
type scaleSpec struct {
	Users       int
	Servers     int
	Models      int
	Shards      int
	Checkpoints int
}

// scaleRun is one memory-accounted scale row.
type scaleRun struct {
	Users   int `json:"users"`
	Servers int `json:"servers"`
	Models  int `json:"models"`
	Shards  int `json:"shards"`
	// Workers is the cell-pool bound the row ran with, always >= 2: the
	// scale row documents the deployment configuration, not the pinned
	// single-core comparison the sweep sections make.
	Workers     int `json:"workers"`
	Checkpoints int `json:"checkpoints"`
	// CheckpointNs is the fastest timed checkpoint (same min filter as the
	// sweep rows).
	CheckpointNs        int64   `json:"checkpoint_ns_per_op"`
	ThroughputUsersPerS float64 `json:"throughput_users_per_s"`
	HitRatioMean        float64 `json:"hit_ratio_mean"`
	Handoffs            int     `json:"handoffs"`
	Grows               int     `json:"grows"`
	// BytesPerUser is the engine's accounted footprint total over K — the
	// capacity-planning number.
	BytesPerUser float64 `json:"bytes_per_user"`
	// AllocsPerCheckpoint is the steady-state heap allocation count per
	// timed checkpoint (Mallocs delta / checkpoints). The zero-allocation
	// contract is pinned at Workers = 1 by the AllocsPerRun regression
	// tests on a smoke config. At scale, per-user high-water marks still
	// grow in the timed window — coverage rows in MoveUsersInPlace, cell
	// grows, the plan's ref lists — at Workers = 1 and 2 alike, while the
	// worker pool adds 2 per parallel call. The schema validator rejects 0
	// as broken accounting.
	AllocsPerCheckpoint float64 `json:"allocs_per_checkpoint"`
	// FootprintTotalBytes is the accounted footprint's component sum;
	// Footprint is its by-component breakdown.
	FootprintTotalBytes int64             `json:"footprint_total_bytes"`
	Footprint           memprof.Footprint `json:"footprint"`
	// PeakRSSBytes is the process high-water resident set (VmHWM) after the
	// run — the whole process, construction spikes included, so it bounds
	// the accounted footprint from above.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

// scaleRunSchema validates one scale row. bytes_per_user and
// allocs_per_checkpoint are the fields this section exists for: missing,
// zero, or non-numeric values fail the run (non-finite values cannot reach
// validation — Go's JSON encoder rejects NaN and ±Inf at marshal time).
var scaleRunSchema = []fieldSpec{
	{"users", 1},
	{"servers", 1},
	{"models", 1},
	{"shards", 1},
	{"workers", 2},
	{"checkpoints", 1},
	{"checkpoint_ns_per_op", 1},
	{"throughput_users_per_s", 0.000001},
	{"hit_ratio_mean", 0.000001},
	{"bytes_per_user", 0.000001},
	{"allocs_per_checkpoint", 0.000001},
	{"footprint_total_bytes", 1},
	{"peak_rss_bytes", 1},
	{"footprint.reach_bytes", 1},
	{"footprint.rank_bytes", 1},
	{"footprint.rate_bytes", 1},
	{"footprint.workload_bytes", 1},
	{"footprint.topology_bytes", 1},
	{"footprint.evaluator_bytes", 1},
	{"footprint.measurement_bytes", 1},
	{"footprint.scratch_bytes", 1},
	{"footprint.coordinator_bytes", 1},
}

// runScale executes one scale row: build the coordinator-backed sharded
// engine, warm up one checkpoint, then time the rest while counting heap
// allocations, and report the accounted footprint.
func runScale(stderr io.Writer, spec scaleSpec) (scaleRun, error) {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	cfg, err := shard.NewScaleBenchConfig(spec.Users, spec.Servers, spec.Models, spec.Shards)
	if err != nil {
		return scaleRun{}, err
	}
	cfg.Workers = workers
	buildStart := time.Now()
	e, err := shard.NewEngine(cfg, rng.New(1))
	if err != nil {
		return scaleRun{}, err
	}
	fmt.Fprintf(stderr, "scale K=%d: engine built in %v\n", spec.Users, time.Since(buildStart).Round(time.Millisecond))
	// Two warm-up checkpoints, not the sweep's one: the first absorbs the
	// flip-index build, the second lets the pooled handoff and refresh
	// buffers grow to the walk's high-water mark, so the timed window
	// reports steady-state allocation, not pool growth.
	for cp := 1; cp <= 2; cp++ {
		if _, err := e.Checkpoint(cp); err != nil {
			return scaleRun{}, err
		}
	}
	warmHandoffs, warmGrows := e.Handoffs(), e.Grows()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var hits float64
	var dur time.Duration
	for cp := 3; cp <= spec.Checkpoints+2; cp++ {
		start := time.Now()
		st, err := e.Checkpoint(cp)
		if err != nil {
			return scaleRun{}, err
		}
		if d := time.Since(start); cp == 3 || d < dur {
			dur = d
		}
		hits += st.HitRatio[0]
	}
	runtime.ReadMemStats(&m1)
	f := e.MemoryFootprint()
	run := scaleRun{
		Users:               spec.Users,
		Servers:             spec.Servers,
		Models:              spec.Models,
		Shards:              spec.Shards,
		Workers:             workers,
		Checkpoints:         spec.Checkpoints,
		CheckpointNs:        dur.Nanoseconds(),
		ThroughputUsersPerS: float64(spec.Users) / dur.Seconds(),
		HitRatioMean:        hits / float64(spec.Checkpoints),
		Handoffs:            e.Handoffs() - warmHandoffs,
		Grows:               e.Grows() - warmGrows,
		BytesPerUser:        float64(f.Total()) / float64(spec.Users),
		AllocsPerCheckpoint: float64(m1.Mallocs-m0.Mallocs) / float64(spec.Checkpoints),
		FootprintTotalBytes: f.Total(),
		Footprint:           f,
		PeakRSSBytes:        peakRSSBytes(m1.Sys),
	}
	fmt.Fprintf(stderr,
		"scale K=%d M=%d I=%d shards=%d workers=%d: %v/checkpoint, %.0f users/s, %.1f B/user, %.1f allocs/checkpoint, peak RSS %d MiB\n",
		spec.Users, spec.Servers, spec.Models, spec.Shards, workers,
		time.Duration(run.CheckpointNs), run.ThroughputUsersPerS, run.BytesPerUser,
		run.AllocsPerCheckpoint, run.PeakRSSBytes>>20)
	e = nil
	cfg = shard.Config{}
	debug.FreeOSMemory()
	return run, nil
}

// peakRSSBytes reads the process peak resident set from /proc/self/status
// (VmHWM, kilobytes). Off Linux — or if the field is missing — it falls
// back to the runtime's OS-reserved byte count, which is always positive.
func peakRSSBytes(fallback uint64) int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			rest, ok := strings.CutPrefix(line, "VmHWM:")
			if !ok {
				continue
			}
			rest = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB"))
			if kb, err := strconv.ParseInt(rest, 10, 64); err == nil && kb > 0 {
				return kb << 10
			}
		}
	}
	return int64(fallback)
}
