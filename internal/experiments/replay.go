// This file is the event-replay seam: one Replay loop and one dispatcher
// that map every scenario-event kind onto engine operations, behind a
// Target interface both engines satisfy. The gallery (RunGallery,
// RunGallerySharded) and the chaos soak (internal/faults) replay their
// timelines through it, so an engine that implements Target gets gallery
// and soak coverage without dispatch code of its own.
package experiments

import (
	"fmt"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/mobility"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/shard"
	"trimcaching/internal/topology"
)

// Target is an engine a scenario timeline can be replayed through. Server
// ids are global; event operations are called between checkpoints.
type Target interface {
	// Checkpoints returns the number of checkpoints after t = 0.
	Checkpoints() int
	// InitialHitRatios returns the t = 0 hit ratio per track.
	InitialHitRatios() []float64
	// SetServersDown takes servers out of (or back into) service.
	SetServersDown(servers []int, down bool) error
	// SetServerCapacity sets server m's storage budget in bytes; negative
	// restores its configured capacity.
	SetServerCapacity(m int, bytes int64) error
	// ForceReplace re-places every track and re-baselines it on checkpoint
	// cp's replacement stream.
	ForceReplace(cp int) error
	// ReviseUserMass queues users whose probability rows were swapped in
	// the live workload; the next Checkpoint revises them mass-only.
	ReviseUserMass(users []int) error
	// GrowLibrary rebuilds the engine over the instance build returns at
	// the engine's current user positions, before checkpoint cp.
	GrowLibrary(cp int, build InstanceFunc) error
	// Checkpoint walks the users through checkpoint cp, refreshes, measures,
	// and fires the triggers. The step's slices are valid until the next call.
	Checkpoint(cp int) (dynamics.Step, error)
	// Replacements returns track a's re-placements so far, including those
	// of engines retired by library grows.
	Replacements(a int) int
}

// InstanceFunc assembles the instance a library grow rebuilds over, at
// the given user positions: a coordinator instance (scenario.NewCoordinator,
// the sharded engine's global shape) when coordinator is set, a full one
// (scenario.New) otherwise.
type InstanceFunc func(positions []geom.Point, coordinator bool) (*scenario.Instance, error)

// Replay drives t through every checkpoint of its timeline, firing tl's
// events at the start of their checkpoint in schedule order, and returns the
// steps, t = 0 included, with copied slices. Servers of a regional event are
// located on topo. Demand and grow events need the gallery's master library
// and are rejected here; RunGallery replays them.
func Replay(t Target, tl Timeline, topo *topology.Topology) ([]dynamics.Step, error) {
	return replay(t, tl, topo, nil)
}

// replay is Replay with the gallery library demand and grow events act on.
func replay(t Target, tl Timeline, topo *topology.Topology, g *gallery) ([]dynamics.Step, error) {
	hits := t.InitialHitRatios()
	steps := []dynamics.Step{{
		HitRatio: append([]float64(nil), hits...),
		Replaced: make([]bool, len(hits)),
	}}
	for cp := 1; cp <= t.Checkpoints(); cp++ {
		for _, ev := range tl.at(cp) {
			if err := dispatch(t, ev, cp, topo, g); err != nil {
				return nil, fmt.Errorf("checkpoint %d: %s event: %w", cp, ev.Kind, err)
			}
		}
		st, err := t.Checkpoint(cp)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", cp, err)
		}
		steps = append(steps, dynamics.Step{
			TimeMin:  st.TimeMin,
			HitRatio: append([]float64(nil), st.HitRatio...),
			Replaced: append([]bool(nil), st.Replaced...),
		})
	}
	return steps, nil
}

// dispatch maps one event onto t. Every fault-side event — outage,
// recovery, degrade, regional — forces one re-place, because a degradation
// trigger never fires when capacity returns; a grow's rebuild re-solves by
// itself, and a demand wave is left to the triggers.
func dispatch(t Target, ev Event, cp int, topo *topology.Topology, g *gallery) error {
	if g == nil && (ev.Kind == EventDemand || ev.Kind == EventGrow) {
		return fmt.Errorf("experiments: %s events need the gallery's model library", ev.Kind)
	}
	var err error
	switch ev.Kind {
	case EventOutage, EventRecovery:
		err = t.SetServersDown(ev.Servers, ev.Kind == EventOutage)
	case EventDegrade:
		err = setCapacity(t, ev.Servers, ev.CapacityBytes)
	case EventRegional:
		if ev.Region == nil {
			return fmt.Errorf("experiments: regional event names no region")
		}
		var servers []int
		if servers, err = topo.ServersIn(*ev.Region); err != nil {
			return err
		}
		switch {
		case ev.CapacityBytes == 0:
			err = t.SetServersDown(servers, true)
		case ev.CapacityBytes < 0:
			if err = t.SetServersDown(servers, false); err == nil {
				err = setCapacity(t, servers, -1)
			}
		default:
			err = setCapacity(t, servers, ev.CapacityBytes)
		}
	case EventDemand:
		if err := g.setDemand(ev); err != nil {
			return err
		}
		return t.ReviseUserMass(g.users)
	case EventGrow:
		g.active += ev.Models
		return t.GrowLibrary(cp, g.instance)
	default:
		return fmt.Errorf("experiments: unknown event kind %q", ev.Kind)
	}
	if err != nil {
		return err
	}
	return t.ForceReplace(cp)
}

// setCapacity applies one storage budget to every listed server.
func setCapacity(t Target, servers []int, bytes int64) error {
	for _, m := range servers {
		if err := t.SetServerCapacity(m, bytes); err != nil {
			return err
		}
	}
	return nil
}

// ShardTarget drives a sharded engine as a Target.
type ShardTarget struct{ *shard.Engine }

// InitialHitRatios implements Target.
func (t ShardTarget) InitialHitRatios() []float64 { return t.InitialStep().HitRatio }

// Checkpoint implements Target.
func (t ShardTarget) Checkpoint(cp int) (dynamics.Step, error) {
	st, err := t.Engine.Checkpoint(cp)
	return dynamics.Step{TimeMin: st.TimeMin, HitRatio: st.HitRatio, Replaced: st.Replaced}, err
}

// GrowLibrary implements Target over a coordinator instance.
func (t ShardTarget) GrowLibrary(_ int, build InstanceFunc) error {
	ins, err := build(t.Positions(), true)
	if err != nil {
		return err
	}
	return t.Engine.GrowLibrary(ins)
}

// DynamicsTarget drives an unsharded engine as a Target. It owns the users'
// walk, on the engine seed's "mobility" and "walk" streams, and moves the
// engine through ApplyExternal as the shard layer moves its cells, so its
// timeline is bit-identical to the engine's own Run; it queues mass
// revisions into the next ApplyExternal. A library grow
// replaces the embedded engine with one over the grown instance, seeded
// from the seed's "grow" stream of that checkpoint, with the live down set
// and storage budgets re-applied first so the grown t = 0 solve respects
// them.
type DynamicsTarget struct {
	*dynamics.Engine
	cfg     dynamics.Config
	src     *rng.Source
	walk    *mobility.Walk
	users   []int // every user id: all of them move each checkpoint
	massRev []int // users queued by ReviseUserMass
	retired []int // per track: re-placements of engines retired by grows
}

// NewDynamicsTarget builds the engine for cfg and its walk from src.
func NewDynamicsTarget(cfg dynamics.Config, src *rng.Source) (*DynamicsTarget, error) {
	if cfg.BaselineCapacities == nil {
		cfg.BaselineCapacities = cfg.Capacities
	}
	eng, err := dynamics.NewEngine(cfg, src)
	if err != nil {
		return nil, err
	}
	topo := cfg.Instance.Topology()
	walk, err := mobility.NewWalk(topo.Area(), topo.UserPositions(), src, cfg.CheckpointMin, cfg.SlotS)
	if err != nil {
		return nil, err
	}
	t := &DynamicsTarget{
		Engine:  eng,
		cfg:     cfg,
		src:     src,
		walk:    walk,
		users:   make([]int, topo.NumUsers()),
		retired: make([]int, len(cfg.Tracks)),
	}
	for k := range t.users {
		t.users[k] = k
	}
	return t, nil
}

// InitialHitRatios implements Target.
func (t *DynamicsTarget) InitialHitRatios() []float64 {
	hits := make([]float64, len(t.cfg.Tracks))
	for a := range hits {
		hits[a] = t.Baseline(a)
	}
	return hits
}

// ForceReplace implements Target.
func (t *DynamicsTarget) ForceReplace(cp int) error {
	for a := range t.cfg.Tracks {
		if _, err := t.Replace(a, cp); err != nil {
			return err
		}
	}
	return nil
}

// ReviseUserMass implements Target.
func (t *DynamicsTarget) ReviseUserMass(users []int) error {
	t.massRev = append(t.massRev, users...)
	return nil
}

// GrowLibrary implements Target over a full instance.
func (t *DynamicsTarget) GrowLibrary(cp int, build InstanceFunc) error {
	ins, err := build(t.walk.Positions(), false)
	if err != nil {
		return err
	}
	if down := t.Instance().DownServers(); len(down) > 0 {
		if _, err := ins.SetServersDown(down, true); err != nil {
			return err
		}
	}
	// The live budgets become the rebuilt engine's Capacities, while
	// BaselineCapacities keeps the configured restore targets. Capacities
	// are bits at the scenario seam, bytes everywhere above.
	caps := make([]int64, len(t.cfg.Capacities))
	for m := range caps {
		if caps[m] = t.ServerCapacityBytes(m); caps[m] != t.cfg.BaselineCapacities[m] {
			if _, err := ins.SetServerCapacity(m, 8*caps[m]); err != nil {
				return err
			}
		}
	}
	cfg := t.cfg
	cfg.Instance, cfg.Capacities = ins, caps
	eng, err := dynamics.NewEngine(cfg, t.src.SplitIndex("grow", cp))
	if err != nil {
		return err
	}
	for a := range t.retired {
		t.retired[a] += t.Engine.Replacements(a) + 1
	}
	t.cfg, t.Engine = cfg, eng
	return nil
}

// Checkpoint implements Target.
func (t *DynamicsTarget) Checkpoint(cp int) (dynamics.Step, error) {
	pos, err := t.walk.Checkpoint()
	if err != nil {
		return dynamics.Step{}, err
	}
	err = t.ApplyExternal(nil, t.massRev, t.users, pos)
	t.massRev = t.massRev[:0]
	if err != nil {
		return dynamics.Step{}, err
	}
	return t.Step(cp)
}

// Replacements implements Target, counting retired engines' too.
func (t *DynamicsTarget) Replacements(a int) int { return t.retired[a] + t.Engine.Replacements(a) }
