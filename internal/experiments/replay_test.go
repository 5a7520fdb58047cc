package experiments

import (
	"reflect"
	"testing"

	"trimcaching/internal/dynamics"
	"trimcaching/internal/rng"
)

// smokeTarget is a DynamicsTarget over the dynamics smoke deployment
// stretched to six checkpoints.
func smokeTarget(t *testing.T, seed uint64) (*DynamicsTarget, dynamics.Config) {
	t.Helper()
	dc, err := dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	dc.DurationMin = 6 * dc.CheckpointMin
	target, err := NewDynamicsTarget(dc, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return target, dc
}

// TestDynamicsTargetMatchesEngineLoop pins the walk DynamicsTarget owns:
// with no events, Replay reproduces the engine's own Run step for step.
func TestDynamicsTargetMatchesEngineLoop(t *testing.T) {
	target, dc := smokeTarget(t, 3)
	got, err := Replay(target, Timeline{}, dc.Instance.Topology())
	if err != nil {
		t.Fatal(err)
	}
	dc, err = dynamics.NewSmokeScaleConfig(dynamics.Incremental)
	if err != nil {
		t.Fatal(err)
	}
	dc.DurationMin = 6 * dc.CheckpointMin
	want, err := dynamics.Run(dc, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Steps) {
		t.Fatalf("replayed steps differ from dynamics.Run:\n got %+v\nwant %+v", got, want.Steps)
	}
}

// TestReplayRejectsBadEvents pins Replay's errors on events it cannot
// apply: demand and grow events without the gallery's master library (the
// chaos soak has none), a regional event without a region, and an unknown
// kind are errors, never skipped or a panic.
func TestReplayRejectsBadEvents(t *testing.T) {
	for _, ev := range []Event{
		{Checkpoint: 1, Kind: EventDemand},
		{Checkpoint: 1, Kind: EventGrow, Models: 1},
		{Checkpoint: 1, Kind: EventRegional},
		{Checkpoint: 1, Kind: "hex"},
	} {
		target, dc := smokeTarget(t, 1)
		if _, err := Replay(target, Timeline{Events: []Event{ev}}, dc.Instance.Topology()); err == nil {
			t.Errorf("Replay accepted %+v", ev)
		}
	}
}

// TestDynamicsTargetGrowKeepsFaults pins the unsharded grow rebuild: an
// outage and a degradation live when the library grows carry into the
// rebuilt engine, so its t = 0 solve and every later one respect them.
func TestDynamicsTargetGrowKeepsFaults(t *testing.T) {
	cfg := DefaultGalleryConfig()
	cfg.DurationMin = 40
	cfg.Timeline = Timeline{Events: []Event{
		{Checkpoint: 1, Kind: EventOutage, Servers: []int{0, 5}},
		{Checkpoint: 1, Kind: EventDegrade, Servers: []int{3}, CapacityBytes: galleryDegradeBytes},
		{Checkpoint: 2, Kind: EventGrow, Models: 4},
	}}
	g, err := newGallery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := g.instance(g.topo.UserPositions(), false)
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewDynamicsTarget(dynamics.Config{
		Instance: ins, Capacities: g.caps, Tracks: g.tracks,
		DurationMin: cfg.DurationMin, CheckpointMin: cfg.CheckpointMin, SlotS: cfg.SlotS, Realizations: cfg.Realizations,
	}, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay(target, cfg.Timeline, g.topo, g); err != nil {
		t.Fatal(err)
	}
	if got := target.Instance().NumModels(); got != cfg.Models+4 {
		t.Fatalf("grown engine has %d models, want %d", got, cfg.Models+4)
	}
	if got := target.Instance().DownServers(); !reflect.DeepEqual(got, []int{0, 5}) {
		t.Errorf("grown engine's down servers %v, want [0 5]", got)
	}
	if got := target.ServerCapacityBytes(3); got != galleryDegradeBytes {
		t.Errorf("grown engine's server 3 budget %d, want %d", got, galleryDegradeBytes)
	}
	if err := target.SetServerCapacity(3, -1); err != nil {
		t.Fatal(err)
	}
	if got := target.ServerCapacityBytes(3); got != g.caps[3] {
		t.Errorf("restored budget %d, want the configured %d", got, g.caps[3])
	}
	if got := target.Replacements(0); got < 3 {
		t.Errorf("%d replacements, want at least the two forced repairs and the grow", got)
	}
}
