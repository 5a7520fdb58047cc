// This file is the chaos soak: randomized fault schedules replayed through
// the gallery's experiments.Replay loop on the unsharded engine (where
// per-checkpoint engine invariants are asserted) and cross-checked
// bit-identical against a Rebuild-mode / multi-worker replica, the
// Shards = 1 sharded engine, and a multi-cell sharded engine at two worker
// counts.
package faults

import (
	"fmt"
	"reflect"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/experiments"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/shard"
)

// SoakConfig parameterizes RunSoak.
type SoakConfig struct {
	// NewBase builds a fresh base deployment per engine replay. A factory
	// rather than a value: every replay mutates its instance through fault
	// events, so replays must not share one. The returned config's
	// DurationMin / CheckpointMin must equal Process.Checkpoints; RunSoak
	// rejects a mismatch.
	NewBase func() (dynamics.Config, error)
	// Process is the fault process every schedule is drawn from.
	Process Config
	// Schedules is how many randomized schedules to replay.
	Schedules int
	// Shards is the multi-cell leg's cell count; 0 means 2.
	Shards int
	// Seed makes the whole soak deterministic: schedule n is drawn from
	// rng.New(Seed).SplitIndex("schedule", n).
	Seed uint64
}

// SoakReport summarizes a completed soak.
type SoakReport struct {
	// Schedules is how many schedules were replayed.
	Schedules int `json:"schedules"`
	// Blackouts, Brownouts, and Recoveries count the fault events across
	// all schedules.
	Blackouts  int `json:"blackouts"`
	Brownouts  int `json:"brownouts"`
	Recoveries int `json:"recoveries"`
	// CheckedCheckpoints is how many checkpoints had the full invariant
	// suite asserted.
	CheckedCheckpoints int `json:"checkedCheckpoints"`
}

// soakVariant is one engine configuration every schedule replays through:
// the unsharded engine in mode when shards is 0, else a shards-cell engine
// in the base's mode. same indexes the variant it must match, or is -1;
// check, set on the primary, receives its per-checkpoint invariant checks.
type soakVariant struct {
	label                 string
	shards, workers, same int
	mode                  dynamics.Mode
	check                 *SoakReport
}

// RunSoak draws Schedules fault schedules and replays each through five
// engines: the invariant-checked primary (Incremental, one worker), a
// Rebuild-mode four-worker replica, the Shards = 1 sharded engine, and a
// multi-cell sharded engine at one and four workers. Every replay runs
// through experiments.Replay, with one forced re-place per fault event. The
// first three timelines must be bit-identical, and so must the two
// multi-cell ones; any invariant violation or divergence is an error naming
// the schedule and checkpoint.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	return runSoak(cfg, nil)
}

// runSoak is RunSoak with an optional record hook, called with every
// variant's steps (t = 0 included) as they complete; the soak golden test
// pins their hit ratios.
func runSoak(cfg SoakConfig, record func(schedule int, variant string, steps []dynamics.Step)) (*SoakReport, error) {
	if cfg.NewBase == nil {
		return nil, fmt.Errorf("faults: NewBase is required")
	}
	if cfg.Schedules <= 0 {
		return nil, fmt.Errorf("faults: Schedules must be positive, got %d", cfg.Schedules)
	}
	// A process spanning more checkpoints than the deployment would draw
	// events no replay reaches (and count them); fewer would leave the
	// tail of every timeline fault-free.
	base, err := cfg.NewBase()
	if err != nil {
		return nil, err
	}
	if base.CheckpointMin <= 0 || base.DurationMin/base.CheckpointMin != cfg.Process.Checkpoints {
		return nil, fmt.Errorf("faults: Process.Checkpoints = %d does not match the base timeline of %d/%d min",
			cfg.Process.Checkpoints, base.DurationMin, base.CheckpointMin)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 2
	}
	rep := &SoakReport{Schedules: cfg.Schedules}
	variants := []soakVariant{
		{label: "incremental/1-worker", workers: 1, same: -1, mode: dynamics.Incremental, check: rep},
		{label: "rebuild/4-worker", workers: 4, same: 0, mode: dynamics.Rebuild},
		{label: "shards=1", shards: 1, workers: 1, same: 0},
		{label: fmt.Sprintf("shards=%d 1-worker", shards), shards: shards, workers: 1, same: -1},
		{label: fmt.Sprintf("shards=%d 4-worker", shards), shards: shards, workers: 4, same: 3},
	}
	for n := 0; n < cfg.Schedules; n++ {
		src := rng.New(cfg.Seed).SplitIndex("schedule", n)
		tl, err := Schedule(cfg.Process, src.Split("process"))
		if err != nil {
			return nil, err
		}
		for _, ev := range tl.Events {
			switch {
			case ev.CapacityBytes == 0:
				rep.Blackouts++
			case ev.CapacityBytes < 0:
				rep.Recoveries++
			default:
				rep.Brownouts++
			}
		}
		engSeed := src.Split("engine").Uint64()
		timelines := make([][]dynamics.Step, len(variants))
		for i, v := range variants {
			steps, err := v.replay(cfg.NewBase, engSeed, tl)
			if err != nil {
				return nil, fmt.Errorf("faults: schedule %d: %s: %w", n, v.label, err)
			}
			if record != nil {
				record(n, v.label, steps)
			}
			timelines[i] = steps
			if v.same < 0 {
				continue
			}
			if err := sameTimelines(v.label+" vs "+variants[v.same].label, steps, timelines[v.same]); err != nil {
				return nil, fmt.Errorf("faults: schedule %d: %w", n, err)
			}
		}
	}
	return rep, nil
}

// replay drives a fresh base deployment through the schedule on this
// variant's engine.
func (v soakVariant) replay(newBase func() (dynamics.Config, error), seed uint64, tl experiments.Timeline) ([]dynamics.Step, error) {
	base, err := newBase()
	if err != nil {
		return nil, err
	}
	base.Workers = v.workers
	var t experiments.Target
	if v.shards == 0 {
		base.Mode = v.mode
		dt, err := experiments.NewDynamicsTarget(base, rng.New(seed))
		if err != nil {
			return nil, err
		}
		t = dt
		if v.check != nil {
			eval, err := placement.NewEvaluator(dt.Instance())
			if err != nil {
				return nil, err
			}
			t = checkedTarget{DynamicsTarget: dt, eval: eval, mass0: dt.Instance().TotalMass(), rep: v.check}
		}
	} else {
		scfg, err := shard.FromDynamics(base, v.shards)
		if err != nil {
			return nil, err
		}
		// FromDynamics maps Workers to MeasureWorkers only; the cell pool
		// runs at the variant's worker count too.
		scfg.Workers = v.workers
		se, err := shard.NewEngine(scfg, rng.New(seed))
		if err != nil {
			return nil, err
		}
		t = experiments.ShardTarget{Engine: se}
	}
	return experiments.Replay(t, tl, base.Instance.Topology())
}

// checkedTarget is the primary replica: the unsharded target with the
// engine invariants asserted after every checkpoint — every track's hit
// ratio lies in [0, 1], request mass is conserved, no placement occupies a
// dark server, and every track's placement is feasible under the live
// (possibly degraded) budgets.
type checkedTarget struct {
	*experiments.DynamicsTarget
	eval  *placement.Evaluator
	mass0 float64
	rep   *SoakReport
}

// Checkpoint implements experiments.Target.
func (t checkedTarget) Checkpoint(cp int) (dynamics.Step, error) {
	st, err := t.DynamicsTarget.Checkpoint(cp)
	if err != nil {
		return st, err
	}
	for a, hr := range st.HitRatio {
		if !(hr >= 0 && hr <= 1) { // NaN fails both compares
			return st, fmt.Errorf("track %d: hit ratio %v outside [0, 1]", a, hr)
		}
	}
	ins := t.Instance()
	if got := ins.TotalMass(); got != t.mass0 {
		return st, fmt.Errorf("request mass drifted: %v, want %v", got, t.mass0)
	}
	caps := make([]int64, ins.NumServers())
	for m := range caps {
		caps[m] = t.ServerCapacityBytes(m)
	}
	down := ins.DownServers()
	for a := range st.HitRatio {
		p := t.Placement(a)
		for _, m := range down {
			if n := p.Models(m).Count(); n != 0 {
				return st, fmt.Errorf("track %d: %d models placed on dark server %d", a, n, m)
			}
		}
		if err := t.eval.CheckFeasible(p, caps); err != nil {
			return st, fmt.Errorf("track %d: %w", a, err)
		}
	}
	t.rep.CheckedCheckpoints++
	return st, nil
}

// sameTimelines compares two replays' hit ratios bit-for-bit and names the
// first checkpoint where they differ.
func sameTimelines(label string, got, want []dynamics.Step) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for cp := range want {
		if !reflect.DeepEqual(got[cp].HitRatio, want[cp].HitRatio) {
			return fmt.Errorf("%s: checkpoint %d hit ratios %v, want %v", label, cp, got[cp].HitRatio, want[cp].HitRatio)
		}
	}
	return nil
}
