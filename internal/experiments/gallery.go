// This file is the scenario gallery: a declarative event schedule (Timeline)
// injected into a dynamics timeline run — server outages with forced repair
// and recovery, partial-capacity degradations and correlated regional
// failures over geometric failure domains, flash-crowd and diurnal demand
// revisions through the mass-only revise path, and rolling model-library
// churn via mid-timeline instance rebuilds — replayed by the one loop in
// replay.go through the unsharded engine (RunGallery, a DynamicsTarget) and
// the sharded engine (RunGallerySharded, a ShardTarget). Each run emits a
// golden-pinnable GalleryResult: the hit-ratio trajectory per checkpoint,
// which events landed where, the re-placement count, and the measured
// recovery latency after an outage.
package experiments

import (
	"fmt"
	"math"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/mobility"
	"trimcaching/internal/modellib"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/shard"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// EventKind names one scenario-event family.
type EventKind string

// The event families the gallery can inject at a checkpoint boundary.
const (
	// EventOutage takes Servers out of service and forces an immediate
	// repair over the reduced server set.
	EventOutage EventKind = "outage"
	// EventRecovery returns Servers to service and forces a re-placement
	// onto the restored capacity (a degradation trigger never fires on
	// recovery — hit ratios only improve when servers come back).
	EventRecovery EventKind = "recovery"
	// EventDemand revises every user's popularity row to a blend of its
	// base profile and a target profile, scaled by MassScale, through the
	// mass-only revise path.
	EventDemand EventKind = "demand"
	// EventGrow appends Models adapters from the reserve library and
	// rebuilds placements over the grown library at the current positions.
	EventGrow EventKind = "grow"
	// EventDegrade shrinks each of Servers to the CapacityBytes storage
	// budget (partial-capacity degradation: the server keeps serving, with
	// less room) and forces a re-placement; a negative CapacityBytes
	// restores each server's configured capacity.
	EventDegrade EventKind = "degrade"
	// EventRegional is a correlated failure of every server whose position
	// Region contains: CapacityBytes == 0 takes the whole region down,
	// CapacityBytes > 0 degrades every server in it to that budget, and a
	// negative CapacityBytes recovers the region (servers back up, budgets
	// restored). Each variant forces a re-placement.
	EventRegional EventKind = "regional"
)

// Event is one timestamped scenario event. Events fire at the start of
// their checkpoint, before that checkpoint's mobility slots.
type Event struct {
	// Checkpoint is when the event fires, counting from 1.
	Checkpoint int `json:"checkpoint"`
	// Kind selects the event family.
	Kind EventKind `json:"kind"`
	// Servers lists the affected servers (outage and recovery).
	Servers []int `json:"servers,omitempty"`
	// HotModel is the demand target: a model id the crowd converges on, or
	// -1 for each user's own popularity profile reversed (the diurnal
	// "different population is awake" wave).
	HotModel int `json:"hotModel,omitempty"`
	// Weight is the demand blend weight in [0, 1]: 0 restores the base
	// profile, 1 replaces it with the target.
	Weight float64 `json:"weight,omitempty"`
	// MassScale multiplies total request mass (demand); 0 means 1.
	MassScale float64 `json:"massScale,omitempty"`
	// Models is how many reserve adapters a grow event appends.
	Models int `json:"models,omitempty"`
	// CapacityBytes is the storage budget of a degrade or regional event:
	// positive shrinks to this budget, negative restores the configured
	// capacity, and zero (regional only) means a full outage of the region.
	CapacityBytes int64 `json:"capacityBytes,omitempty"`
	// Region is the failure domain of a regional event.
	Region *geom.Region `json:"region,omitempty"`
}

// Timeline is a declarative event schedule, ordered by checkpoint.
type Timeline struct {
	Events []Event `json:"events"`
}

// at returns the events firing at checkpoint cp, in schedule order.
func (t Timeline) at(cp int) []Event {
	var evs []Event
	for _, ev := range t.Events {
		if ev.Checkpoint == cp {
			evs = append(evs, ev)
		}
	}
	return evs
}

// GalleryConfig parameterizes one gallery scenario run. The deployment is
// the shard benchmark's: a grid server layout at the paper's density (10
// servers per km²), a LoRA library over a shared 1B-parameter foundation
// model, LLM-provisioning deadlines, and an occasional-download activity
// model — the setting where every event family has visible effect.
type GalleryConfig struct {
	// Name labels the scenario in artifacts ("outage", "flashcrowd", ...).
	Name string `json:"name"`
	// Servers, Users, Models shape the deployment; ReserveModels is how
	// many extra adapters the master library holds for grow events.
	Servers       int `json:"servers"`
	Users         int `json:"users"`
	Models        int `json:"models"`
	ReserveModels int `json:"reserveModels"`
	// CapacityBytes is the per-server storage budget; 0 means 2.06 GB —
	// the shared 2 GB foundation plus 6 of the 10 MB adapters — so each
	// server caches a small slice of the library and placement has to
	// chase demand.
	CapacityBytes int64 `json:"capacityBytes"`
	// DurationMin, CheckpointMin, SlotS shape the timeline (§VII-E).
	DurationMin   int     `json:"durationMin"`
	CheckpointMin int     `json:"checkpointMin"`
	SlotS         float64 `json:"slotS"`
	// Realizations is the fading realizations per checkpoint measurement.
	Realizations int `json:"realizations"`
	// Mode selects Incremental or Rebuild refreshes (pinned identical).
	Mode dynamics.Mode `json:"mode"`
	// Workers bounds update/measurement parallelism; 0 means GOMAXPROCS.
	// Results are bit-identical for any worker count.
	Workers int `json:"workers,omitempty"`
	// Shards is the cell count for the sharded leg (RunGallerySharded).
	Shards int `json:"shards"`
	// Seed makes the whole run deterministic.
	Seed uint64 `json:"seed"`
	// RecoveryFrac defines recovery: the first checkpoint at or after the
	// recovery event whose hit ratio reaches RecoveryFrac times the
	// pre-outage hit ratio. 0 means 0.98.
	RecoveryFrac float64 `json:"recoveryFrac"`
	// Timeline is the event schedule (see GalleryScenario).
	Timeline Timeline `json:"timeline"`
}

// DefaultGalleryConfig returns the reduced-scale gallery setting used by
// the golden tests and the CI smoke: large enough that every event family
// moves the hit ratio, small enough to run in seconds.
func DefaultGalleryConfig() GalleryConfig {
	return GalleryConfig{
		Servers:       12,
		Users:         400,
		Models:        24,
		ReserveModels: 8,
		CapacityBytes: 2_060_000_000,
		DurationMin:   120,
		CheckpointMin: 10,
		SlotS:         5,
		Realizations:  4,
		Mode:          dynamics.Incremental,
		Shards:        4,
		Seed:          1,
		RecoveryFrac:  0.98,
	}
}

// Validate reports the first invalid field, if any.
func (c GalleryConfig) Validate() error {
	if c.Servers <= 0 || c.Users <= 0 || c.Models <= 0 {
		return fmt.Errorf("gallery: need positive servers/users/models, got %d/%d/%d", c.Servers, c.Users, c.Models)
	}
	if c.ReserveModels < 0 {
		return fmt.Errorf("gallery: ReserveModels must be >= 0, got %d", c.ReserveModels)
	}
	if c.DurationMin <= 0 || c.CheckpointMin <= 0 || c.DurationMin < c.CheckpointMin {
		return fmt.Errorf("gallery: bad timeline %d/%d min", c.DurationMin, c.CheckpointMin)
	}
	if _, err := mobility.SlotsPerCheckpoint(c.CheckpointMin, c.SlotS); err != nil {
		return fmt.Errorf("gallery: %w", err)
	}
	if c.Realizations <= 0 {
		return fmt.Errorf("gallery: Realizations must be positive")
	}
	if c.Shards <= 0 {
		return fmt.Errorf("gallery: Shards must be positive, got %d", c.Shards)
	}
	if c.Workers < 0 {
		return fmt.Errorf("gallery: Workers must be >= 0, got %d", c.Workers)
	}
	if c.RecoveryFrac < 0 || c.RecoveryFrac > 1 {
		return fmt.Errorf("gallery: RecoveryFrac %v outside [0, 1]", c.RecoveryFrac)
	}
	checkpoints := c.DurationMin / c.CheckpointMin
	grown := 0
	for e, ev := range c.Timeline.Events {
		if ev.Checkpoint < 1 || ev.Checkpoint > checkpoints {
			return fmt.Errorf("gallery: event %d at checkpoint %d outside [1, %d]", e, ev.Checkpoint, checkpoints)
		}
		switch ev.Kind {
		case EventOutage, EventRecovery, EventDegrade:
			if len(ev.Servers) == 0 {
				return fmt.Errorf("gallery: event %d (%s) names no servers", e, ev.Kind)
			}
			for _, m := range ev.Servers {
				if m < 0 || m >= c.Servers {
					return fmt.Errorf("gallery: event %d: server %d out of range [0,%d)", e, m, c.Servers)
				}
			}
			if ev.Kind == EventDegrade && ev.CapacityBytes == 0 {
				return fmt.Errorf("gallery: event %d (degrade) names no budget; use > 0 to shrink or < 0 to restore", e)
			}
		case EventDemand:
			if ev.HotModel < -1 || ev.HotModel >= c.Models {
				return fmt.Errorf("gallery: event %d: hot model %d out of range [-1,%d)", e, ev.HotModel, c.Models)
			}
			if ev.Weight < 0 || ev.Weight > 1 {
				return fmt.Errorf("gallery: event %d: weight %v outside [0, 1]", e, ev.Weight)
			}
			if ev.MassScale < 0 {
				return fmt.Errorf("gallery: event %d: mass scale %v negative", e, ev.MassScale)
			}
		case EventGrow:
			if ev.Models <= 0 {
				return fmt.Errorf("gallery: event %d grows by %d models", e, ev.Models)
			}
			grown += ev.Models
		case EventRegional:
			if ev.Region == nil {
				return fmt.Errorf("gallery: event %d (regional) names no region", e)
			}
			if err := ev.Region.Validate(); err != nil {
				return fmt.Errorf("gallery: event %d: %w", e, err)
			}
		default:
			return fmt.Errorf("gallery: event %d has unknown kind %q", e, ev.Kind)
		}
	}
	if grown > c.ReserveModels {
		return fmt.Errorf("gallery: timeline grows %d models but only %d are reserved", grown, c.ReserveModels)
	}
	return nil
}

// GalleryNames lists the built-in scenarios in gallery order.
func GalleryNames() []string {
	return []string{"outage", "flashcrowd", "diurnal", "churn", "degrade", "regional"}
}

// GalleryScenario fills base's Name and Timeline with one of the built-in
// scenario families, scheduled relative to base's checkpoint count:
//
//   - "outage": a quarter of the servers fail a third of the way in and
//     return at two thirds, with forced repair on both edges.
//   - "flashcrowd": demand converges hard on one model (blend 0.8) with a
//     1.5x mass surge, then reverts.
//   - "diurnal": every checkpoint re-blends demand along a raised-cosine
//     wave toward each user's reversed profile — a different population
//     waking up through the day.
//   - "churn": the reserve adapters roll in as two library grows.
//   - "degrade": a quarter of the servers lose storage a third of the way
//     in — shrunk to the foundation plus ~2 adapters, so they keep serving
//     a reduced slice — and get their capacity back at two thirds.
//   - "regional": a correlated failure at a third — a disk-shaped blackout
//     around one corner of the grid plus a brownout (degraded budgets)
//     across the opposite half — recovered and restored at two thirds.
func GalleryScenario(name string, base GalleryConfig) (GalleryConfig, error) {
	cfg := base
	cfg.Name = name
	checkpoints := cfg.DurationMin / cfg.CheckpointMin
	third := (checkpoints + 2) / 3
	twoThirds := (2*checkpoints + 2) / 3
	switch name {
	case "outage":
		downed := make([]int, 0, cfg.Servers/4)
		for m := 0; m < (cfg.Servers+3)/4; m++ {
			downed = append(downed, m)
		}
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventOutage, Servers: downed},
			{Checkpoint: twoThirds, Kind: EventRecovery, Servers: downed},
		}}
	case "flashcrowd":
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventDemand, HotModel: 0, Weight: 0.8, MassScale: 1.5},
			{Checkpoint: twoThirds, Kind: EventDemand, HotModel: 0, Weight: 0, MassScale: 1},
		}}
	case "diurnal":
		evs := make([]Event, 0, checkpoints)
		for cp := 1; cp <= checkpoints; cp++ {
			w := 0.45 * (1 - math.Cos(2*math.Pi*float64(cp)/float64(checkpoints)))
			evs = append(evs, Event{Checkpoint: cp, Kind: EventDemand, HotModel: -1, Weight: w, MassScale: 1})
		}
		cfg.Timeline = Timeline{Events: evs}
	case "churn":
		first := cfg.ReserveModels / 2
		second := cfg.ReserveModels - first
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventGrow, Models: first},
			{Checkpoint: twoThirds, Kind: EventGrow, Models: second},
		}}
	case "degrade":
		shrunk := make([]int, 0, (cfg.Servers+3)/4)
		for m := 0; m < (cfg.Servers+3)/4; m++ {
			shrunk = append(shrunk, m)
		}
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventDegrade, Servers: shrunk, CapacityBytes: galleryDegradeBytes},
			{Checkpoint: twoThirds, Kind: EventDegrade, Servers: shrunk, CapacityBytes: -1},
		}}
	case "regional":
		side := gallerySideM(cfg.Servers)
		corner := geom.DiskRegion(side/4, side/4, side/3)
		band := geom.RectRegion(side/2, 0, side, side)
		cfg.Timeline = Timeline{Events: []Event{
			{Checkpoint: third, Kind: EventRegional, Region: &corner},
			{Checkpoint: third, Kind: EventRegional, Region: &band, CapacityBytes: galleryDegradeBytes},
			{Checkpoint: twoThirds, Kind: EventRegional, Region: &corner, CapacityBytes: -1},
			{Checkpoint: twoThirds, Kind: EventRegional, Region: &band, CapacityBytes: -1},
		}}
	default:
		return GalleryConfig{}, fmt.Errorf("gallery: unknown scenario %q (have %v)", name, GalleryNames())
	}
	return cfg, cfg.Validate()
}

// GalleryStep is one checkpoint of a gallery timeline.
type GalleryStep struct {
	// TimeMin is minutes since the start.
	TimeMin float64 `json:"timeMin"`
	// HitRatio is the fading-averaged cache hit ratio.
	HitRatio float64 `json:"hitRatio"`
	// Replaced reports whether the placement was re-solved here, by the
	// degradation trigger or an event's forced repair.
	Replaced bool `json:"replaced"`
	// Events labels the scenario events that fired at this checkpoint.
	Events []string `json:"events,omitempty"`
}

// GalleryResult is one completed gallery scenario run.
type GalleryResult struct {
	// Scenario is the scenario name; Sharded tells which engine ran it.
	Scenario string `json:"scenario"`
	Sharded  bool   `json:"sharded"`
	// Steps holds one entry per checkpoint, including t = 0.
	Steps []GalleryStep `json:"steps"`
	// Replacements counts re-placements over the whole run, including the
	// re-solves forced by events and library grows.
	Replacements int `json:"replacements"`
	// FinalModels is the active library size at the end (grows included).
	FinalModels int `json:"finalModels"`
	// PreOutageHit is the hit ratio of the checkpoint preceding the first
	// fault event — outage, degrade, or regional failure (0 when the
	// timeline has none).
	PreOutageHit float64 `json:"preOutageHit,omitempty"`
	// RecoveryCheckpoints is how many checkpoints after the recovery event
	// (or capacity restore) the hit ratio first reached RecoveryFrac times
	// PreOutageHit; -1 when the timeline has no recovery or the run never
	// recovered.
	RecoveryCheckpoints int `json:"recoveryCheckpoints"`
	// Handoffs and Grows are sharded-leg counters (cell ownership changes
	// and slot-table overflow rebuilds).
	Handoffs int `json:"handoffs,omitempty"`
	Grows    int `json:"grows,omitempty"`
}

// GalleryArtifact is one scenario's gallery artifact: the configuration and
// the timelines through both engines. It is the shape of the checked-in
// goldens and of servesim's -gallery-json output.
type GalleryArtifact struct {
	Config    GalleryConfig  `json:"config"`
	Unsharded *GalleryResult `json:"unsharded"`
	Sharded   *GalleryResult `json:"sharded"`
}

// galleryFoundationParams sizes the shared foundation model (1B parameters,
// 2 GB at fp16), as in the shard benchmark deployment.
const galleryFoundationParams = 1_000_000_000

// galleryDegradeBytes is the degraded per-server budget the built-in
// degrade and regional families shrink to: the 2 GB foundation plus ~2 of
// the 10 MB adapters, down from the default 6 — a brownout that evicts
// most of a server's cached slice without blocking the library outright.
const galleryDegradeBytes = 2_020_000_000

// gallerySideM is the square deployment side at the paper's density (10
// servers per km²) — shared by the topology draw and the regional
// failure-domain geometry, so built-in regions stay aligned with the grid.
func gallerySideM(servers int) float64 {
	return 1000 * math.Sqrt(float64(servers)/10)
}

// gallery is one gallery leg: the deployment — the master library and
// workload (Models+ReserveModels wide), the fixed topology draw, and the
// wireless/placement configuration — plus the library state its demand and
// grow events mutate. Targets never hold this state: replay hands it to
// them through ReviseUserMass and GrowLibrary.
type gallery struct {
	cfg    GalleryConfig
	lib    *modellib.Library
	topo   *topology.Topology
	w      wireless.Config
	master *workload.Workload
	caps   []int64
	tracks []dynamics.Track

	active int                // active library width: a prefix of the master
	work   *workload.Workload // the live instance's workload, aliasing rows
	users  []int              // every user id: a demand wave revises them all

	// The demand blend: every live probability row is its master prefix
	// blended by weight toward a target profile (all mass on model hot, or
	// the row reversed when hot is -1) and scaled by mass. Blended rows are
	// written into ping-ponged arenas, so a revision always rebinds to fresh
	// memory: consumers holding the previous rows (aliased cell slot tables
	// in the sharded leg) keep reading stable values until their own revise.
	hot          int
	weight, mass float64
	arenas       [2][]float64
	flip         int
}

// newGallery validates cfg and draws the deployment. The topology and
// master workload come from the same "instance" sub-streams Generate uses,
// so the draw is stable in (config, seed) alone.
func newGallery(cfg GalleryConfig) (*gallery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 2_060_000_000
	}
	if cfg.RecoveryFrac == 0 {
		cfg.RecoveryFrac = 0.98
	}
	itot := cfg.Models + cfg.ReserveModels
	lcfg := libgen.DefaultLoRAConfig(itot)
	lcfg.FoundationParams = galleryFoundationParams
	lib, err := libgen.GenerateLoRA(lcfg)
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	w := wireless.DefaultConfig()
	// A constrained backhaul (100 Mbps against a 2 GB foundation model)
	// makes relay delivery miss every deadline: models are served from the
	// covering servers' own caches, so per-server capacity binds and every
	// event family — outages, demand waves, library churn — moves the hit
	// ratio instead of being papered over by network-wide relay reach.
	w.BackhaulBps = 1e8
	w.ActiveProb = 0.02
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	src := rng.New(cfg.Seed).Split("instance")
	topo, err := topology.Generate(topology.Config{
		AreaSideM:       gallerySideM(cfg.Servers),
		NumServers:      cfg.Servers,
		NumUsers:        cfg.Users,
		CoverageRadiusM: w.CoverageRadiusM,
		ServerLayout:    topology.LayoutGrid,
	}, src.Split("topology"))
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	master, err := workload.Generate(cfg.Users, itot, wl, src.Split("workload"))
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	g := &gallery{
		cfg:    cfg,
		lib:    lib,
		topo:   topo,
		w:      w,
		master: master,
		caps:   placement.UniformCapacities(cfg.Servers, cfg.CapacityBytes),
		tracks: []dynamics.Track{{
			Algorithm: placement.GenAlgorithm{Options: placement.GenOptions{Lazy: true}},
			Trigger:   dynamics.ThresholdTrigger{Degradation: 0.05},
		}},
		active: cfg.Models,
		users:  make([]int, cfg.Users),
		mass:   1,
	}
	for k := range g.users {
		g.users[k] = k
	}
	return g, nil
}

// instance is the leg's InstanceFunc: an instance over the active
// library prefix at the given user positions, with an aliased workload
// whose rows are prefixes of the master rows — growing the library is then
// a pure prefix extension, and the shared foundation blocks keep their
// identity across grows. The new workload becomes the live one and takes
// the current demand blend before the instance is built over it, so the
// instance's request masses match the rows it reads.
func (g *gallery) instance(positions []geom.Point, coordinator bool) (*scenario.Instance, error) {
	ids := make([]int, g.active)
	for i := range ids {
		ids[i] = i
	}
	alib, err := libgen.Subset(g.lib, ids)
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	work, err := workload.NewAliased(g.cfg.Users, g.active)
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	for k := 0; k < g.cfg.Users; k++ {
		if err := work.SetUserRows(k, g.master.ProbRow(k)[:g.active], g.master.DeadlineRow(k)[:g.active], g.master.InferRow(k)[:g.active]); err != nil {
			return nil, fmt.Errorf("gallery: %w", err)
		}
	}
	g.work = work
	if err := g.applyDemand(); err != nil {
		return nil, err
	}
	topo, err := g.topo.WithUserPositions(positions)
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	var ins *scenario.Instance
	if coordinator {
		ins, err = scenario.NewCoordinator(topo, alib, work, g.w)
	} else {
		ins, err = scenario.New(topo, alib, work, g.w)
	}
	if err != nil {
		return nil, fmt.Errorf("gallery: %w", err)
	}
	return ins, nil
}

// setDemand records a demand event's blend and rebinds the live rows to it.
func (g *gallery) setDemand(ev Event) error {
	g.hot, g.weight, g.mass = ev.HotModel, ev.Weight, ev.MassScale
	if g.mass == 0 {
		g.mass = 1
	}
	return g.applyDemand()
}

// applyDemand rebinds every user's probability row in the live workload to
// the current blend at the active library width. With no blend in effect
// the rows go back to the master prefixes.
func (g *gallery) applyDemand() error {
	K, active := g.cfg.Users, g.active
	if g.weight == 0 && g.mass == 1 {
		for k := 0; k < K; k++ {
			if err := g.work.SetUserProbRow(k, g.master.ProbRow(k)[:active]); err != nil {
				return fmt.Errorf("gallery: %w", err)
			}
		}
		return nil
	}
	itot := g.master.NumModels()
	if g.arenas[g.flip] == nil {
		g.arenas[g.flip] = make([]float64, K*itot)
	}
	arena := g.arenas[g.flip]
	g.flip ^= 1
	for k := 0; k < K; k++ {
		base := g.master.ProbRow(k)
		row := arena[k*itot : k*itot+active]
		for i := 0; i < active; i++ {
			target := 0.0
			switch {
			case g.hot >= 0:
				if i == g.hot {
					target = 1
				}
			default:
				target = base[active-1-i]
			}
			row[i] = g.mass * ((1-g.weight)*base[i] + g.weight*target)
		}
		if err := g.work.SetUserProbRow(k, row); err != nil {
			return fmt.Errorf("gallery: %w", err)
		}
	}
	return nil
}

// eventLabel renders an event for the step artifact.
func eventLabel(ev Event, active int) string {
	switch ev.Kind {
	case EventOutage, EventRecovery:
		return fmt.Sprintf("%s(%d servers)", ev.Kind, len(ev.Servers))
	case EventDemand:
		mass := ev.MassScale
		if mass == 0 {
			mass = 1
		}
		return fmt.Sprintf("demand(hot=%d w=%.3f mass=%.3f)", ev.HotModel, ev.Weight, mass)
	case EventGrow:
		return fmt.Sprintf("grow(+%d -> %d models)", ev.Models, active)
	case EventDegrade:
		if ev.CapacityBytes < 0 {
			return fmt.Sprintf("degrade(%d servers restored)", len(ev.Servers))
		}
		return fmt.Sprintf("degrade(%d servers -> %.2fGB)", len(ev.Servers), float64(ev.CapacityBytes)/1e9)
	case EventRegional:
		switch {
		case ev.CapacityBytes == 0:
			return fmt.Sprintf("regional(%s down)", ev.Region.Kind)
		case ev.CapacityBytes < 0:
			return fmt.Sprintf("regional(%s recovered)", ev.Region.Kind)
		default:
			return fmt.Sprintf("regional(%s -> %.2fGB)", ev.Region.Kind, float64(ev.CapacityBytes)/1e9)
		}
	default:
		return string(ev.Kind)
	}
}

// RunGallery runs one gallery scenario through the unsharded dynamics
// engine, driven as a DynamicsTarget: the target owns the walk so events
// land at checkpoint boundaries, demand revisions flow through
// ApplyExternal's mass-only path, and library grows rebuild the engine over
// the widened instance at the current positions.
func RunGallery(cfg GalleryConfig) (*GalleryResult, error) { return runGallery(cfg, false) }

// RunGallerySharded runs the same gallery scenario through the sharded
// engine, driven as a ShardTarget over a coordinator instance: outages and
// budgets map onto the owning cells, demand revisions queue through
// ReviseUserMass, and library grows rebuild every cell (GrowLibrary).
func RunGallerySharded(cfg GalleryConfig) (*GalleryResult, error) { return runGallery(cfg, true) }

// runGallery builds one leg's t = 0 instance and engine, replays the
// timeline through it, and annotates the steps: event labels, forced
// re-solves (every event but a demand wave forces one; see dispatch), the
// pre-fault hit ratio, and the recovery latency.
func runGallery(cfg GalleryConfig, sharded bool) (*GalleryResult, error) {
	g, err := newGallery(cfg)
	if err != nil {
		return nil, err
	}
	ins, err := g.instance(g.topo.UserPositions(), sharded)
	if err != nil {
		return nil, err
	}
	dcfg := dynamics.Config{
		Instance:      ins,
		Capacities:    g.caps,
		Tracks:        g.tracks,
		DurationMin:   g.cfg.DurationMin,
		CheckpointMin: g.cfg.CheckpointMin,
		SlotS:         g.cfg.SlotS,
		Realizations:  g.cfg.Realizations,
		Workers:       g.cfg.Workers,
		Mode:          g.cfg.Mode,
	}
	var t Target
	var se *shard.Engine
	if sharded {
		scfg, err := shard.FromDynamics(dcfg, g.cfg.Shards)
		if err != nil {
			return nil, err
		}
		scfg.Workers = g.cfg.Workers
		if se, err = shard.NewEngine(scfg, rng.New(g.cfg.Seed)); err != nil {
			return nil, err
		}
		t = ShardTarget{se}
	} else if t, err = NewDynamicsTarget(dcfg, rng.New(g.cfg.Seed)); err != nil {
		return nil, err
	}
	steps, err := replay(t, g.cfg.Timeline, g.topo, g)
	if err != nil {
		return nil, err
	}
	res := &GalleryResult{
		Scenario:            g.cfg.Name,
		Sharded:             sharded,
		Steps:               make([]GalleryStep, 0, len(steps)),
		Replacements:        t.Replacements(0),
		FinalModels:         g.active,
		RecoveryCheckpoints: -1,
	}
	if se != nil {
		res.Handoffs, res.Grows = se.Handoffs(), se.Grows()
	}
	active, recoveryCp := g.cfg.Models, -1
	for cp, st := range steps {
		gs := GalleryStep{TimeMin: st.TimeMin, HitRatio: st.HitRatio[0], Replaced: st.Replaced[0]}
		for _, ev := range g.cfg.Timeline.at(cp) {
			if ev.Kind == EventGrow {
				active += ev.Models
			}
			gs.Events = append(gs.Events, eventLabel(ev, active))
			gs.Replaced = gs.Replaced || ev.Kind != EventDemand
			// Recoveries and restores give capacity back; every other
			// non-demand, non-grow event is a fault.
			switch {
			case ev.Kind == EventRecovery || ev.CapacityBytes < 0 && (ev.Kind == EventDegrade || ev.Kind == EventRegional):
				recoveryCp = cp
			case ev.Kind != EventDemand && ev.Kind != EventGrow && res.PreOutageHit == 0:
				res.PreOutageHit = res.Steps[cp-1].HitRatio
			}
		}
		res.Steps = append(res.Steps, gs)
	}
	if recoveryCp < 0 || res.PreOutageHit <= 0 {
		return res, nil
	}
	target := g.cfg.RecoveryFrac * res.PreOutageHit
	for cp := recoveryCp; cp < len(res.Steps); cp++ {
		if res.Steps[cp].HitRatio >= target {
			res.RecoveryCheckpoints = cp - recoveryCp
			break
		}
	}
	return res, nil
}
