// Package shard scales the dynamics engine horizontally: the deployment
// area is partitioned into a grid of geographic cells, each cell gets its
// own topology slice, scenario.Instance, placement evaluator, and
// externally-driven dynamics.Engine, and checkpoints run every cell on a
// worker pool. One global mobility population walks all users (the same
// walk, bit for bit, the unsharded engine produces); per checkpoint the
// coordinator diffs each user's cell memberships and turns cross-cell
// movement into handoff deltas — a park-and-zero ReviseUsers call on the
// cell the user left, a bind-and-move call on the cell it entered — so
// every cell absorbs only the users that moved within or across its
// boundary. The global hit ratio is the request-mass-weighted aggregate of
// the per-cell fused measurements.
//
// Cell semantics: servers are partitioned by position (each cell owns the
// servers inside its rectangle) and every user is owned by exactly one
// cell (the one whose rectangle contains it), where its full request mass
// counts. A user is additionally visible to a neighboring cell as a
// zero-mass ghost while one of that cell's servers covers it, which keeps
// every owned server's association load — and hence its rates — exactly
// equal to the unsharded computation. What sharding gives up is cross-cell
// service: a boundary user cannot be served by a neighbor cell's servers
// (directly or over the backhaul relay), so the aggregate hit ratio is a
// slight underestimate of the unsharded objective unless no coverage disk
// crosses a cell boundary, in which case per-user reachability is exact.
// With Shards = 1 the single cell is the whole area and the engine's
// output is bit-identical to dynamics.Run.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"trimcaching/internal/cachesim"
	"trimcaching/internal/dynamics"
	"trimcaching/internal/geom"
	"trimcaching/internal/memprof"
	"trimcaching/internal/mobility"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/stats"
	"trimcaching/internal/topology"
	"trimcaching/internal/workload"
)

// TraceConfig selects trace-driven serving as the sharded measurement: each
// cell synthesizes its owned users' slice of the global request window
// (arrival streams keyed by global user id, so a user's request stream is
// bit-stable across cell handoffs) and serves it through its own
// cachesim.ServeSession. Checkpoints then report request-weighted global
// hit ratios and exact global latency quantiles (per-cell sorted latency
// buffers merged, not quantiles of quantiles) in Step.Serve.
type TraceConfig struct {
	// RequestsPerUserPerHour is the Poisson arrival rate per user. Zero
	// synthesizes empty windows.
	RequestsPerUserPerHour float64
	// WindowS is the serving window length in seconds; 0 means the
	// checkpoint length (CheckpointMin * 60).
	WindowS float64
	// Event configures the serving simulator; a zero CloudRateBps selects
	// cachesim.DefaultEventConfig.
	Event cachesim.EventConfig
}

// Config parameterizes one sharded timeline run. The dynamics fields
// (Tracks through Mode) mean exactly what they mean in dynamics.Config;
// measurement is the Monte-Carlo fading track unless Trace selects the
// request-level serving track.
type Config struct {
	// Instance is the global t = 0 problem instance. The engine reads its
	// topology, workload, library, and wireless configuration to build the
	// per-cell instances; it is never mutated. Shadowed instances are
	// rejected: per-link shadowing is keyed by (server, user) index pairs,
	// which slot rebinding would scramble.
	Instance *scenario.Instance
	// Capacities is the per-server storage budget, global server ids.
	Capacities []int64
	// Tracks are the algorithms evaluated side by side; every cell solves
	// its own placement per track. Stateful triggers (dynamics.Resetter
	// implementers) must also implement dynamics.TriggerCloner when
	// Shards > 1 — each cell then fires its own clone on its own measured
	// degradation; sharing one trigger's history across cells would mix
	// their measurements. A cell grown by slot-table overflow restarts its
	// triggers from a fresh clone.
	Tracks []dynamics.Track
	// DurationMin and CheckpointMin shape the timeline.
	DurationMin   int
	CheckpointMin int
	// SlotS is the mobility slot length.
	SlotS float64
	// Realizations is the fading realizations per cell measurement
	// (Monte-Carlo track only; ignored when Trace is set).
	Realizations int
	// Trace selects trace-driven serving as the measurement: per-cell
	// synthesizers and ServeSessions instead of the fading Monte-Carlo.
	// Nil keeps the fading track.
	Trace *TraceConfig
	// Mode selects how cells refresh: Incremental (default) threads
	// ReviseUsers deltas; Rebuild reconstructs each cell instance from its
	// live slot table every checkpoint — the reference path the
	// equivalence tests pin the deltas against.
	Mode dynamics.Mode
	// Shards is the number of cells; 1 delegates to a single whole-area
	// cell, bit-identical to the unsharded engine.
	Shards int
	// MarginM is the ghost-visibility prefilter band around each cell
	// rectangle. 0 means the coverage radius, the minimum that keeps owned
	// server loads exact; smaller positive values are rejected.
	MarginM float64
	// Workers bounds the cell-level worker pool; 0 means GOMAXPROCS.
	// Results are bit-identical for any worker count.
	Workers int
	// MeasureWorkers bounds each cell's fading-evaluation parallelism; 0
	// means max(1, GOMAXPROCS/Shards). Results do not depend on it.
	MeasureWorkers int
	// SlotHeadroom is the fraction of spare user slots each cell instance
	// is built with (room for arrivals before the cell must be rebuilt
	// larger); 0 means 0.25. Ignored at Shards = 1, where membership never
	// changes.
	SlotHeadroom float64
}

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	if c.Instance == nil {
		return fmt.Errorf("shard: instance is required")
	}
	if c.Instance.Shadowed() {
		return fmt.Errorf("shard: shadowed instances are not shardable (per-link gains are index-keyed)")
	}
	if len(c.Capacities) != c.Instance.NumServers() {
		return fmt.Errorf("shard: %d capacities for %d servers", len(c.Capacities), c.Instance.NumServers())
	}
	if len(c.Tracks) == 0 {
		return fmt.Errorf("shard: at least one track is required")
	}
	for a, tr := range c.Tracks {
		if tr.Algorithm == nil {
			return fmt.Errorf("shard: track %d has no algorithm", a)
		}
		if _, stateful := tr.Trigger.(dynamics.Resetter); stateful && c.Shards > 1 {
			if _, cloneable := tr.Trigger.(dynamics.TriggerCloner); !cloneable {
				return fmt.Errorf("shard: track %d has a stateful trigger without CloneTrigger; cells cannot share its history", a)
			}
		}
	}
	if c.DurationMin <= 0 || c.CheckpointMin <= 0 || c.DurationMin < c.CheckpointMin {
		return fmt.Errorf("shard: bad timeline %d/%d min", c.DurationMin, c.CheckpointMin)
	}
	if c.SlotS <= 0 {
		return fmt.Errorf("shard: SlotS must be positive")
	}
	if c.Trace == nil && c.Realizations <= 0 {
		return fmt.Errorf("shard: Realizations must be positive")
	}
	if c.Trace != nil {
		if c.Trace.RequestsPerUserPerHour < 0 {
			return fmt.Errorf("shard: Trace.RequestsPerUserPerHour must be >= 0, got %v", c.Trace.RequestsPerUserPerHour)
		}
		if c.Trace.WindowS < 0 {
			return fmt.Errorf("shard: Trace.WindowS must be >= 0, got %v", c.Trace.WindowS)
		}
	}
	if c.Mode != dynamics.Incremental && c.Mode != dynamics.Rebuild {
		return fmt.Errorf("shard: unknown mode %d", int(c.Mode))
	}
	if c.Shards <= 0 {
		return fmt.Errorf("shard: Shards must be positive, got %d", c.Shards)
	}
	if r := c.Instance.Topology().CoverageRadius(); c.MarginM != 0 && c.MarginM < r {
		return fmt.Errorf("shard: margin %v below coverage radius %v breaks load exactness", c.MarginM, r)
	}
	return nil
}

// FromDynamics lifts an unsharded dynamics configuration into a sharded
// one, so the two engines can run the same scenario side by side. A nil
// Measurement lifts to the fading Monte-Carlo track and a
// *dynamics.TraceMeasurement to the trace-driven serving track; any other
// measurement is rejected rather than dropped — silently measuring
// something other than what the caller configured would poison comparisons.
func FromDynamics(dc dynamics.Config, shards int) (Config, error) {
	var tc *TraceConfig
	switch m := dc.Measurement.(type) {
	case nil:
	case *dynamics.TraceMeasurement:
		if m.UserKey != nil || m.StreamSalt != 0 {
			return Config{}, fmt.Errorf("shard: TraceMeasurement with a custom UserKey or StreamSalt is not liftable (the sharded engine derives both per cell)")
		}
		tc = &TraceConfig{
			RequestsPerUserPerHour: m.RequestsPerUserPerHour,
			WindowS:                m.WindowS,
			Event:                  m.Event,
		}
	default:
		return Config{}, fmt.Errorf("shard: Measurement %q is not liftable", dc.Measurement.Name())
	}
	return Config{
		Instance:       dc.Instance,
		Capacities:     dc.Capacities,
		Tracks:         dc.Tracks,
		DurationMin:    dc.DurationMin,
		CheckpointMin:  dc.CheckpointMin,
		SlotS:          dc.SlotS,
		Realizations:   dc.Realizations,
		Trace:          tc,
		Mode:           dc.Mode,
		Shards:         shards,
		MeasureWorkers: dc.Workers,
	}, nil
}

// grid is the cell partition of the square area: gx × gy rectangles, cell
// id = cy*gx + cx.
type grid struct {
	gx, gy int
	cw, ch float64
}

// makeGrid factors shards into the squarest gx × gy split of the area.
func makeGrid(shards int, side float64) grid {
	gx, gy := shards, 1
	for d := 2; d*d <= shards; d++ {
		if shards%d == 0 {
			gx, gy = shards/d, d
		}
	}
	return grid{gx: gx, gy: gy, cw: side / float64(gx), ch: side / float64(gy)}
}

func clampCell(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// cellOf returns the cell owning position p.
func (g grid) cellOf(p geom.Point) int {
	cx := clampCell(int(p.X/g.cw), g.gx)
	cy := clampCell(int(p.Y/g.ch), g.gy)
	return cy*g.gx + cx
}

// candidates returns the inclusive cell index ranges whose margin-expanded
// rectangles can contain p.
func (g grid) candidates(p geom.Point, margin float64) (cx0, cx1, cy0, cy1 int) {
	cx0 = clampCell(int((p.X-margin)/g.cw), g.gx)
	cx1 = clampCell(int((p.X+margin)/g.cw), g.gx)
	cy0 = clampCell(int((p.Y-margin)/g.ch), g.gy)
	cy1 = clampCell(int((p.Y+margin)/g.ch), g.gy)
	return
}

// inBand reports whether p lies within cell c's margin-expanded rectangle.
func (g grid) inBand(c int, p geom.Point, margin float64) bool {
	cx, cy := c%g.gx, c/g.gx
	return p.X >= float64(cx)*g.cw-margin && p.X <= float64(cx+1)*g.cw+margin &&
		p.Y >= float64(cy)*g.ch-margin && p.Y <= float64(cy+1)*g.ch+margin
}

// ref is one (cell, slot) binding of a user.
type ref struct {
	cell, slot int32
}

// cell is one shard: a server slice, a slot table over the locally visible
// users, and an externally-driven dynamics engine on the cell instance.
type cell struct {
	id        int
	servers   []int // global server ids, ascending
	serverPts []geom.Point
	caps      []int64
	src       *rng.Source

	eng  *dynamics.Engine
	work *workload.Workload

	slots []int32 // slot -> global user id, -1 free
	free  []int32 // free-slot stack
	local int     // bound slots

	// downLocal lists the cell's out-of-service servers (local indices,
	// ascending). Maintained by Engine.SetServersDown and re-applied on
	// every rebuild, so outages survive grows.
	downLocal []int

	// capLocal maps local server index -> degraded storage budget in bytes,
	// -1 when the server runs at its configured capacity. nil until the
	// first degradation touches the cell. Maintained by
	// Engine.SetServerCapacity and re-applied on every rebuild — both to
	// the fresh cell instance and to the rebuilt engine's live capacity
	// vector — so partial-capacity degradations survive grows while the
	// pristine caps stay the restore target.
	capLocal []int64

	// Per-checkpoint batches, built by the serial plan phase and consumed
	// by the parallel refresh. pending* deduplicate by slot with an epoch
	// stamp: a slot parked and rebound in the same checkpoint keeps one
	// batch entry, overwritten (moves) or upgraded (revisions) in place.
	// Revisions carry a level — mass-only (the probability row swapped:
	// ownership flips and parkings) or full (all rows rebound: arrivals) —
	// split into ReviseUsers' massOnly/revised lists at apply time.
	revTouch     []int  // slots with any pending revision, deduplicated
	revLevel     []int8 // slot -> revLevelMass or revLevelFull, epoch-gated
	revised      []int  // apply-time scratch: full revisions
	massOnly     []int  // apply-time scratch: probability-row revisions
	moved        []int
	movedPos     []geom.Point
	pendingMove  []int32 // slot -> index into moved, epoch-gated
	moveEpoch    []int32
	revEpoch     []int32
	epoch        int32
	overflow     []int32 // users that found no free slot: grow the cell
	fresh        bool    // rebuilt this checkpoint: skip ApplyExternal
	lastStep     dynamics.Step
	lastMass     float64
	lastBaseline []float64

	// Trace-mode serving state: the cell's trace measurement plus
	// cell-owned copies of the last checkpoint's per-track window stats and
	// sorted latency buffers (the measurement's scratch is overwritten
	// every Measure; the aggregate reads these after the parallel phase).
	traceMeas *dynamics.TraceMeasurement
	lastServe []cachesim.EventResult
	lastLats  [][]float64
}

// Revision levels: a mass-only revision swapped just the probability row
// (thresholds untouched); a full revision rebound all three rows.
const (
	revLevelMass = int8(1)
	revLevelFull = int8(2)
)

// Step is one aggregated checkpoint of a sharded timeline.
type Step struct {
	// TimeMin is minutes since the start.
	TimeMin float64 `json:"timeMin"`
	// HitRatio is, per track, the request-mass-weighted aggregate of the
	// per-cell hit ratios (with one cell, the cell's hit ratio verbatim).
	HitRatio []float64 `json:"hitRatio"`
	// Replaced reports, per track, whether any cell re-placed here.
	Replaced []bool `json:"replaced"`
	// Serve is, per track, the request-level serving aggregate of this
	// checkpoint's measurement windows — counts summed over cells, the hit
	// ratio request-weighted (ΣQoSHits/ΣRequests), and the latency
	// quantiles exact (computed on the merge of the cells' sorted latency
	// buffers, not quantiles of per-cell quantiles). Nil unless the engine
	// runs the trace-driven track (Config.Trace). With one cell the cell's
	// EventResult passes through verbatim.
	Serve []cachesim.EventResult `json:"serve,omitempty"`
}

// Result is a completed sharded timeline.
type Result struct {
	// Steps holds one entry per checkpoint, including t = 0.
	Steps []Step
	// Replacements counts each track's re-placements summed over cells.
	Replacements []int
	// Handoffs counts ownership changes (a user's owner cell changing).
	Handoffs int
	// Grows counts cell rebuilds forced by slot-table overflow.
	Grows int
	// Cells is the number of cells (= Config.Shards).
	Cells int
}

// Engine is a running sharded timeline.
type Engine struct {
	cfg    Config
	src    *rng.Source
	grid   grid
	margin float64
	radius float64
	park   geom.Point

	pop       *mobility.Population
	walkSrc   *rng.Source
	positions []geom.Point

	owner []int32 // per user: owning cell
	refs  [][]ref // per user: cells where locally visible, with slot

	cells   []*cell
	workers int

	slotsPerCheckpoint int
	checkpoints        int

	replacedBase []int // replacements absorbed from engines retired by grows
	handoffs     int
	grows        int

	zeroRow  []float64
	refBuf   []ref // plan-phase scratch for one user's new refs
	headroom float64

	// pendingMass queues global users whose probability rows the caller
	// swapped in the global workload (ReviseUserMass); the next plan()
	// drains it into per-cell mass-only revisions after the membership pass.
	pendingMass []int

	planScratch []int     // plan-phase localCells backing, reused
	aggStep     Step      // aggregate's reused result; valid until the next call
	aggNum      []float64 // aggregate's weighted-sum scratch

	// Trace-mode aggregation scratch: the per-track serve aggregates and
	// the k-way merge of the cells' sorted latency buffers, reused across
	// checkpoints.
	aggServe []cachesim.EventResult
	mergeBuf []float64
	mergeIdx []int
}

// NewEngine validates the configuration, partitions servers into cells,
// builds every cell's slot table, instance, and engine (including the
// t = 0 placements and baselines), and wires the global mobility
// population from the same "mobility"/"walk" streams the unsharded engine
// uses — so user trajectories are identical between the two for one seed.
// With Shards = 1 the cell engine also draws its measurement streams from
// src itself, making the whole timeline bit-identical to dynamics.Run;
// with more cells, cell c measures from src.SplitIndex("cell", c).
func NewEngine(cfg Config, src *rng.Source) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gt := cfg.Instance.Topology()
	side := gt.Area().Side
	radius := gt.CoverageRadius()
	margin := cfg.MarginM
	if margin == 0 {
		margin = radius
	}
	headroom := cfg.SlotHeadroom
	if headroom <= 0 {
		headroom = 0.25
	}
	e := &Engine{
		cfg:                cfg,
		src:                src,
		grid:               makeGrid(cfg.Shards, side),
		margin:             margin,
		radius:             radius,
		park:               geom.Point{X: -(side + 4*radius), Y: -(side + 4*radius)},
		positions:          gt.UserPositions(),
		owner:              make([]int32, gt.NumUsers()),
		refs:               make([][]ref, gt.NumUsers()),
		workers:            cfg.Workers,
		slotsPerCheckpoint: int(float64(cfg.CheckpointMin*60)/cfg.SlotS + 0.5),
		checkpoints:        cfg.DurationMin / cfg.CheckpointMin,
		replacedBase:       make([]int, len(cfg.Tracks)),
		zeroRow:            make([]float64, cfg.Instance.NumModels()),
		headroom:           headroom,
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.workers > cfg.Shards {
		e.workers = cfg.Shards
	}

	// Server partition by position.
	e.cells = make([]*cell, cfg.Shards)
	for c := range e.cells {
		e.cells[c] = &cell{id: c}
	}
	for m := 0; m < gt.NumServers(); m++ {
		c := e.cells[e.grid.cellOf(gt.ServerPos(m))]
		c.servers = append(c.servers, m)
		c.serverPts = append(c.serverPts, gt.ServerPos(m))
		c.caps = append(c.caps, cfg.Capacities[m])
	}
	for c, sh := range e.cells {
		if len(sh.servers) == 0 {
			return nil, fmt.Errorf("shard: cell %d owns no servers; use fewer shards or a denser deployment", c)
		}
		switch {
		case cfg.Shards == 1:
			sh.src = src
		case cfg.Trace != nil:
			// Trace mode shares the global seed across cells on purpose: the
			// per-checkpoint chain "fading"/cp → "arrivals" → "user"/globalID
			// is then cell-independent, so a user's arrival stream survives
			// handoffs bit for bit. Serving fades are decorrelated per cell
			// through the measurement's StreamSalt instead.
			sh.src = src
		default:
			sh.src = src.SplitIndex("cell", c)
		}
	}

	if cfg.Shards > 1 {
		// The global rank index is every cell provider's copy source (see
		// buildCell). Construction now builds it eagerly; this call is a
		// no-op safety net for instances from older construction paths.
		cfg.Instance.EnsureRankIndex()
	}

	// Mobility: the same global walk the unsharded engine performs.
	pop, err := mobility.NewPopulation(gt.Area(), e.positions, src.Split("mobility"))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	e.pop = pop
	e.walkSrc = src.Split("walk")

	// Initial memberships and slot tables.
	locals := make([][]int, cfg.Shards)
	for k := range e.positions {
		e.owner[k] = int32(e.grid.cellOf(e.positions[k]))
		for _, c := range e.localCells(e.positions[k], int(e.owner[k]), nil) {
			locals[c] = append(locals[c], k)
		}
	}
	for c, sh := range e.cells {
		if err := e.buildCell(sh, locals[c]); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// localCells returns, ascending, the cells where a user at p is locally
// visible: its owner plus every cell with a server covering p. buf is an
// optional reusable backing slice.
func (e *Engine) localCells(p geom.Point, owner int, buf []int) []int {
	out := buf[:0]
	cx0, cx1, cy0, cy1 := e.grid.candidates(p, e.margin)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			c := cy*e.grid.gx + cx
			if c == owner {
				out = append(out, c)
				continue
			}
			for _, sp := range e.cells[c].serverPts {
				if sp.Dist(p) <= e.radius {
					out = append(out, c)
					break
				}
			}
		}
	}
	return out
}

// buildCell (re)constructs one cell from scratch for the given locally
// visible users (ascending): an aliased slot workload (owned users carry
// their real probability rows, ghosts a shared zero row, spare slots are
// fully inert), a topology over the cell's servers and slot positions, a
// fresh instance, and an externally-driven dynamics engine, which solves
// the cell's t = 0 placements and measures their baselines. User refs are
// (re)pointed at the new slots.
func (e *Engine) buildCell(sh *cell, locals []int) error {
	ins := e.cfg.Instance
	gw := ins.Workload()
	spares := 0
	if e.cfg.Shards > 1 {
		spares = int(float64(len(locals))*e.headroom) + 4
	}
	slots := len(locals) + spares
	if slots == 0 {
		slots = 1 // topology.New requires at least one user
	}
	work, err := workload.NewAliased(slots, ins.NumModels())
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	slotPts := make([]geom.Point, slots)
	sh.slots = make([]int32, slots)
	sh.free = sh.free[:0]
	for s := range sh.slots {
		sh.slots[s] = -1
		slotPts[s] = e.park
	}
	for s, g := range locals {
		prob := e.zeroRow
		if int(e.owner[g]) == sh.id {
			prob = gw.ProbRow(g)
		}
		if err := work.SetUserRows(s, prob, gw.DeadlineRow(g), gw.InferRow(g)); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		slotPts[s] = e.positions[g]
		sh.slots[s] = int32(g)
		e.setRef(g, sh.id, s)
	}
	for s := slots - 1; s >= len(locals); s-- {
		sh.free = append(sh.free, int32(s))
	}
	sh.local = len(locals)

	topo, err := topology.New(ins.Topology().Area(), sh.serverPts, slotPts, e.radius)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	// A bound slot's QoS thresholds equal its global user's, so its rank
	// rows are a copy of the global rank index rather than an O(I log I)
	// sort — both at construction, where the rank index is now built
	// eagerly for the fused kernel's rank-prefix masks, and on slot
	// rebinds, the handoff path's hot spot. The provider is threaded
	// through NewRanked so it serves the construction-time build too; it
	// reads only immutable global rows and this cell's own slot table
	// (mutated serially in plan), so parallel cells are race-free. Unbound
	// (parked) slots fall back to the sort.
	var provider scenario.RankProvider
	if e.cfg.Shards > 1 {
		provider = func(slot int, do []int32, dv []float64, ro []int32, rv []float64) bool {
			g := sh.slots[slot]
			if g < 0 {
				return false
			}
			gdo, gdv, gro, grv := ins.UserRankRows(int(g))
			copy(do, gdo)
			copy(dv, gdv)
			copy(ro, gro)
			copy(rv, grv)
			return true
		}
	}
	cellIns, err := scenario.NewRanked(topo, ins.Library(), work, ins.Wireless(), provider)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	// Outages survive rebuilds: re-apply the cell's down set before the
	// engine's t = 0 solve, so a grown cell's initial placement is already
	// over the reduced server set.
	if len(sh.downLocal) > 0 {
		if _, err := cellIns.SetServersDown(sh.downLocal, true); err != nil {
			return fmt.Errorf("shard: cell %d: %w", sh.id, err)
		}
	}
	// Degradations survive rebuilds the same way: the fresh instance gets
	// the reduced budgets before the engine's t = 0 solve, the engine solves
	// over the degraded capacity vector, and the pristine caps ride along as
	// the restore target.
	liveCaps := sh.caps
	if sh.capLocal != nil {
		liveCaps = append([]int64(nil), sh.caps...)
		for j, bytes := range sh.capLocal {
			if bytes < 0 {
				continue
			}
			liveCaps[j] = bytes
			if _, err := cellIns.SetServerCapacity(j, 8*bytes); err != nil {
				return fmt.Errorf("shard: cell %d: %w", sh.id, err)
			}
		}
	}
	measureWorkers := e.cfg.MeasureWorkers
	if measureWorkers <= 0 {
		// Divide the CPU budget by the cells actually running concurrently —
		// the effective cell-pool width — not by the cell count: a
		// Workers:1 engine over 8 shards runs cells serially, so each cell's
		// measurement may use the whole budget, and an explicit Workers pin
		// caps the budget itself.
		budget := runtime.GOMAXPROCS(0)
		if e.cfg.Workers > 0 && e.cfg.Workers < budget {
			budget = e.cfg.Workers
		}
		measureWorkers = budget / e.workers
		if measureWorkers < 1 {
			measureWorkers = 1
		}
	}
	// Stateful triggers are cloned per cell (fresh history; see
	// Config.Tracks). A grown cell passes through here again, so its
	// triggers restart from an empty measurement window — the rebuilt
	// engine re-baselines anyway.
	tracks := e.cfg.Tracks
	if e.cfg.Shards > 1 {
		for a := range tracks {
			if _, ok := tracks[a].Trigger.(dynamics.TriggerCloner); ok {
				cloned := make([]dynamics.Track, len(e.cfg.Tracks))
				copy(cloned, e.cfg.Tracks)
				for b := range cloned {
					if tc, ok := cloned[b].Trigger.(dynamics.TriggerCloner); ok {
						cloned[b].Trigger = tc.CloneTrigger()
					}
				}
				tracks = cloned
				break
			}
		}
	}
	sh.traceMeas = nil
	var meas dynamics.Measurement
	if e.cfg.Trace != nil {
		windowS := e.cfg.Trace.WindowS
		if windowS == 0 {
			windowS = float64(e.cfg.CheckpointMin) * 60
		}
		tm := &dynamics.TraceMeasurement{
			RequestsPerUserPerHour: e.cfg.Trace.RequestsPerUserPerHour,
			WindowS:                windowS,
			Event:                  e.cfg.Trace.Event,
			// Cell 0 keeps the unsalted serving stream, so a Shards=1 run
			// (and cell 0 of any run) serves bit-identically to the
			// unsharded trace track.
			StreamSalt: sh.id,
		}
		if e.cfg.Shards > 1 {
			// Slot → global id for handoff-stable arrival streams; ghosts
			// (owned elsewhere) and parked slots synthesize nothing, so each
			// global request is served by exactly one cell. The closure reads
			// this cell's slot table and the global owner map, both mutated
			// only in the serial plan phase — race-free under parallel cells,
			// the same argument as the rank provider above.
			tm.UserKey = func(slot int) (int, bool) {
				g := sh.slots[slot]
				return int(g), g >= 0 && int(e.owner[g]) == sh.id
			}
		}
		sh.traceMeas = tm
		meas = tm
	}
	eng, err := dynamics.NewEngine(dynamics.Config{
		Instance:           cellIns,
		Capacities:         liveCaps,
		BaselineCapacities: sh.caps,
		Tracks:             tracks,
		DurationMin:        e.cfg.DurationMin,
		CheckpointMin:      e.cfg.CheckpointMin,
		SlotS:              e.cfg.SlotS,
		Realizations:       e.cfg.Realizations,
		Workers:            measureWorkers,
		Mode:               e.cfg.Mode,
		Measurement:        meas,
		ExternalMobility:   true,
	}, sh.src)
	if err != nil {
		return fmt.Errorf("shard: cell %d: %w", sh.id, err)
	}
	sh.work = work
	sh.eng = eng
	if sh.traceMeas != nil {
		// Keep the t = 0 baseline window's serve stats for the first
		// aggregate (NewEngine's baseline Measure recorded them).
		sh.captureServe()
	}
	sh.pendingMove = make([]int32, slots)
	sh.revLevel = make([]int8, slots)
	sh.moveEpoch = make([]int32, slots)
	sh.revEpoch = make([]int32, slots)
	sh.lastBaseline = make([]float64, len(e.cfg.Tracks))
	for a := range e.cfg.Tracks {
		sh.lastBaseline[a] = eng.Baseline(a)
	}
	return nil
}

// captureServe copies the cell's last recorded per-track serve stats out
// of the measurement scratch (overwritten every Measure) into cell-owned
// buffers the aggregate reads after the parallel phase.
func (sh *cell) captureServe() {
	res := sh.traceMeas.LastResults()
	sh.lastServe = append(sh.lastServe[:0], res...)
	for len(sh.lastLats) < len(res) {
		sh.lastLats = append(sh.lastLats, nil)
	}
	for a := range res {
		sh.lastLats[a] = append(sh.lastLats[a][:0], sh.traceMeas.LastLatencies(a)...)
	}
}

// setRef points user g's binding for cell c at slot s, replacing an
// existing ref for c if present.
func (e *Engine) setRef(g, c, s int) {
	for i := range e.refs[g] {
		if e.refs[g][i].cell == int32(c) {
			e.refs[g][i].slot = int32(s)
			return
		}
	}
	e.refs[g] = append(e.refs[g], ref{cell: int32(c), slot: int32(s)})
}

// Checkpoints returns the number of checkpoints after t = 0.
func (e *Engine) Checkpoints() int { return e.checkpoints }

// Cells returns the number of cells.
func (e *Engine) Cells() int { return len(e.cells) }

// CellServers returns cell c's global server ids, ascending. Read-only.
func (e *Engine) CellServers(c int) []int { return e.cells[c].servers }

// CellInstance returns cell c's current instance (test and inspection
// hook; treat as read-only).
func (e *Engine) CellInstance(c int) *scenario.Instance { return e.cells[c].eng.Instance() }

// CellSlot returns the slot of user g in cell c, if locally visible there.
func (e *Engine) CellSlot(c, g int) (int, bool) {
	for _, r := range e.refs[g] {
		if int(r.cell) == c {
			return int(r.slot), true
		}
	}
	return 0, false
}

// Owner returns the cell currently owning user g.
func (e *Engine) Owner(g int) int { return int(e.owner[g]) }

// Positions returns a copy of the current global user positions.
func (e *Engine) Positions() []geom.Point {
	return append([]geom.Point(nil), e.positions...)
}

// Handoffs returns the ownership changes so far.
func (e *Engine) Handoffs() int { return e.handoffs }

// Grows returns the overflow-forced cell rebuilds so far.
func (e *Engine) Grows() int { return e.grows }

// aggregate folds the cells' last steps into one Step: per track, the
// request-mass-weighted mean of the per-cell hit ratios (each cell's
// instance TotalMass is exactly its owned request mass — ghost and spare
// rows are zero). A single cell passes its hit ratio through untouched,
// keeping Shards = 1 bit-identical to the unsharded engine.
//
// The returned step's slices are engine-owned and reused: valid until the
// next aggregate (Checkpoint) call. Callers that keep steps copy the
// slices (Run does).
func (e *Engine) aggregate(timeMin float64) Step {
	nt := len(e.cfg.Tracks)
	if cap(e.aggStep.HitRatio) < nt {
		e.aggStep.HitRatio = make([]float64, nt)
		e.aggStep.Replaced = make([]bool, nt)
		e.aggNum = make([]float64, nt)
	}
	step := Step{
		TimeMin:  timeMin,
		HitRatio: e.aggStep.HitRatio[:nt],
		Replaced: e.aggStep.Replaced[:nt],
	}
	if e.cfg.Trace != nil {
		if cap(e.aggServe) < nt {
			e.aggServe = make([]cachesim.EventResult, nt)
		}
		step.Serve = e.aggServe[:nt]
		for a := range step.Serve {
			step.Serve[a] = e.mergeServe(a)
		}
	}
	if len(e.cells) == 1 {
		copy(step.HitRatio, e.cells[0].lastStep.HitRatio)
		copy(step.Replaced, e.cells[0].lastStep.Replaced)
		return step
	}
	num := e.aggNum[:nt]
	for a := range num {
		num[a] = 0
		step.HitRatio[a] = 0
		step.Replaced[a] = false
	}
	var den float64
	for _, sh := range e.cells {
		// Replacement flags aggregate regardless of mass: a cell can
		// re-place (e.g. on a periodic trigger) while momentarily owning
		// no request mass.
		for a := range step.Replaced {
			if sh.lastStep.Replaced[a] {
				step.Replaced[a] = true
			}
		}
		mass := sh.lastMass
		if mass <= 0 {
			continue
		}
		den += mass
		for a := range num {
			num[a] += sh.lastStep.HitRatio[a] * mass
		}
	}
	if den > 0 {
		for a := range num {
			step.HitRatio[a] = num[a] / den
		}
	}
	return step
}

// mergeServe folds the cells' recorded serving windows for track a into one
// global EventResult: request counters sum (each request is synthesized and
// served by exactly one cell), the hit ratio is the request-weighted
// ΣQoSHits/ΣRequests, and the latency quantiles are exact — the per-cell
// sorted latency buffers are k-way merged into one engine-owned buffer and
// the quantiles read from it, never quantiles-of-quantiles. Peak concurrency
// takes the max over cells, which is exact because cells partition the
// servers. A single cell passes its window through verbatim, keeping
// Shards = 1 bit-identical to the unsharded TraceMeasurement.
func (e *Engine) mergeServe(a int) cachesim.EventResult {
	if len(e.cells) == 1 {
		sh := e.cells[0]
		if a < len(sh.lastServe) {
			return sh.lastServe[a]
		}
		return cachesim.EventResult{}
	}
	var res cachesim.EventResult
	total := 0
	for _, sh := range e.cells {
		if a >= len(sh.lastServe) {
			continue
		}
		r := sh.lastServe[a]
		res.Requests += r.Requests
		res.Direct += r.Direct
		res.Relay += r.Relay
		res.Cloud += r.Cloud
		res.Failed += r.Failed
		res.QoSHits += r.QoSHits
		if r.PeakConcurrency > res.PeakConcurrency {
			res.PeakConcurrency = r.PeakConcurrency
		}
		if a < len(sh.lastLats) {
			total += len(sh.lastLats[a])
		}
	}
	if res.Requests > 0 {
		res.HitRatio = float64(res.QoSHits) / float64(res.Requests)
	}
	if total == 0 {
		return res
	}
	if cap(e.mergeBuf) < total {
		e.mergeBuf = make([]float64, 0, total)
	}
	if cap(e.mergeIdx) < len(e.cells) {
		e.mergeIdx = make([]int, len(e.cells))
	}
	merged := e.mergeBuf[:0]
	idx := e.mergeIdx[:len(e.cells)]
	for c := range idx {
		idx[c] = 0
	}
	// K-way merge of the per-cell sorted buffers. Cell counts are small
	// (≤ 8 in every benchmark), so the linear min-scan beats a heap.
	var sum float64
	for len(merged) < total {
		best, bestC := math.Inf(1), -1
		for c, sh := range e.cells {
			if a >= len(sh.lastLats) || idx[c] >= len(sh.lastLats[a]) {
				continue
			}
			if v := sh.lastLats[a][idx[c]]; bestC < 0 || v < best {
				best, bestC = v, c
			}
		}
		if bestC < 0 {
			break
		}
		idx[bestC]++
		merged = append(merged, best)
		sum += best
	}
	e.mergeBuf = merged
	n := len(merged)
	if n == 0 {
		return res
	}
	res.MeanLatency = secToDur(sum / float64(n))
	res.P50Latency = secToDur(stats.QuantileSorted(merged, 0.50))
	res.P95Latency = secToDur(stats.QuantileSorted(merged, 0.95))
	res.P99Latency = secToDur(stats.QuantileSorted(merged, 0.99))
	return res
}

// secToDur converts seconds to a time.Duration with the same float op the
// serving simulator uses, so merged quantiles round identically.
func secToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// baselineStep assembles the t = 0 step from the cells' initial baselines.
func (e *Engine) baselineStep() Step {
	for _, sh := range e.cells {
		sh.lastStep.TimeMin = 0
		sh.lastStep.HitRatio = append(sh.lastStep.HitRatio[:0], sh.lastBaseline...)
		sh.lastStep.Replaced = sh.lastStep.Replaced[:0]
		for range e.cfg.Tracks {
			sh.lastStep.Replaced = append(sh.lastStep.Replaced, false)
		}
		sh.lastMass = sh.eng.Instance().TotalMass()
	}
	return e.aggregate(0)
}

// Checkpoint advances one checkpoint: walk all users, plan and apply the
// membership diffs, refresh and measure every cell on the worker pool, and
// aggregate. cp counts from 1. The returned step's slices are engine-owned
// and reused (see aggregate); callers that keep steps copy them.
func (e *Engine) Checkpoint(cp int) (Step, error) {
	for s := 0; s < e.slotsPerCheckpoint; s++ {
		if err := e.pop.Step(e.cfg.SlotS, e.walkSrc); err != nil {
			return Step{}, fmt.Errorf("shard: %w", err)
		}
	}
	e.pop.PositionsInto(e.positions)
	if err := e.plan(); err != nil {
		return Step{}, err
	}
	if err := e.runCells(cp); err != nil {
		return Step{}, err
	}
	return e.aggregate(float64(cp * e.cfg.CheckpointMin)), nil
}

// plan is the serial membership pass: for every user (ascending, so batch
// order — and hence every downstream float reduction — is deterministic)
// diff its old cell refs against the cells its new position is visible
// from, emitting per-cell movement and revision batches. Oversubscribed
// cells are rebuilt ("grown") with a larger slot table before the parallel
// phase.
func (e *Engine) plan() error {
	for _, sh := range e.cells {
		sh.revTouch = sh.revTouch[:0]
		sh.moved = sh.moved[:0]
		sh.movedPos = sh.movedPos[:0]
		sh.overflow = sh.overflow[:0]
		sh.epoch++
	}
	for k := range e.positions {
		pos := e.positions[k]
		oldOwner := int(e.owner[k])
		newOwner := e.grid.cellOf(pos)
		newLocal := e.localCells(pos, newOwner, e.planScratch)
		e.planScratch = newLocal
		e.refBuf = e.refBuf[:0]

		for _, r := range e.refs[k] {
			sh := e.cells[r.cell]
			// Visibility hysteresis: a user becomes local when a cell
			// server covers it (newLocal) but stays local until it exits
			// the cell's whole margin band. Uncovered band residents add
			// nothing to loads, mass, or measurement (zero-mass skip) —
			// while churning the slot table only at band boundaries, not
			// at every coverage-circle crossing.
			still := e.grid.inBand(int(r.cell), pos, e.margin)
			for _, c := range newLocal {
				if c == int(r.cell) {
					still = true
					break
				}
			}
			if !still {
				// Departure: park the slot and zero its request mass. The
				// deadline rows stay bound — a parked slot has no coverage,
				// so its reach rows are zero under any thresholds, and the
				// next binding rebinds all rows anyway.
				if err := sh.work.SetUserProbRow(int(r.slot), e.zeroRow); err != nil {
					return fmt.Errorf("shard: %w", err)
				}
				sh.revise(int(r.slot), revLevelMass)
				sh.move(int(r.slot), e.park)
				sh.slots[r.slot] = -1
				sh.free = append(sh.free, r.slot)
				sh.local--
				continue
			}
			// Still local: move, and swap the probability row on ownership
			// transitions (owned -> ghost or ghost -> owned). Thresholds are
			// untouched, so these are mass-only revisions.
			wasOwner := int(r.cell) == oldOwner
			isOwner := int(r.cell) == newOwner
			if wasOwner != isOwner {
				prob := e.zeroRow
				if isOwner {
					prob = e.cfg.Instance.Workload().ProbRow(k)
				}
				if err := sh.work.SetUserProbRow(int(r.slot), prob); err != nil {
					return fmt.Errorf("shard: %w", err)
				}
				sh.revise(int(r.slot), revLevelMass)
			}
			sh.move(int(r.slot), pos)
			e.refBuf = append(e.refBuf, r)
		}
		// Arrivals: cells newly visible.
		for _, c := range newLocal {
			known := false
			for _, r := range e.refBuf {
				if int(r.cell) == c {
					known = true
					break
				}
			}
			if known {
				continue
			}
			sh := e.cells[c]
			if len(sh.free) == 0 {
				sh.overflow = append(sh.overflow, int32(k))
				continue
			}
			slot := sh.free[len(sh.free)-1]
			sh.free = sh.free[:len(sh.free)-1]
			sh.slots[slot] = int32(k)
			sh.local++
			prob := e.zeroRow
			if c == newOwner {
				prob = e.cfg.Instance.Workload().ProbRow(k)
			}
			gw := e.cfg.Instance.Workload()
			if err := sh.work.SetUserRows(int(slot), prob, gw.DeadlineRow(k), gw.InferRow(k)); err != nil {
				return fmt.Errorf("shard: %w", err)
			}
			sh.revise(int(slot), revLevelFull)
			sh.move(int(slot), pos)
			e.refBuf = append(e.refBuf, ref{cell: int32(c), slot: slot})
		}
		if newOwner != oldOwner {
			e.handoffs++
			e.owner[k] = int32(newOwner)
		}
		e.refs[k] = append(e.refs[k][:0], e.refBuf...)
	}
	// Grow oversubscribed cells: rebuild with every currently bound user
	// plus the overflow, ascending, and fresh headroom.
	for _, sh := range e.cells {
		if len(sh.overflow) == 0 {
			continue
		}
		locals := make([]int, 0, sh.local+len(sh.overflow))
		for _, g := range sh.slots {
			if g >= 0 {
				locals = append(locals, int(g))
			}
		}
		for _, g := range sh.overflow {
			locals = append(locals, int(g))
		}
		sort.Ints(locals)
		for a := range e.cfg.Tracks {
			e.replacedBase[a] += sh.eng.Replacements(a)
		}
		if err := e.buildCell(sh, locals); err != nil {
			return err
		}
		sh.fresh = true
		e.grows++
	}
	// Drain queued mass revisions (ReviseUserMass) after the membership
	// pass, so a queued user that also moved, flipped ownership, or arrived
	// this checkpoint dedups into the same slot batches. Cell rows alias the
	// global buffers, so a global row swap must be re-bound per owning slot;
	// ghost slots stay on the shared zero row, and freshly rebuilt cells
	// already bound the live rows.
	if len(e.pendingMass) > 0 {
		gw := e.cfg.Instance.Workload()
		for _, g := range e.pendingMass {
			for _, r := range e.refs[g] {
				sh := e.cells[r.cell]
				if sh.fresh || int(r.cell) != int(e.owner[g]) {
					continue
				}
				if err := sh.work.SetUserProbRow(int(r.slot), gw.ProbRow(g)); err != nil {
					return fmt.Errorf("shard: %w", err)
				}
				sh.revise(int(r.slot), revLevelMass)
			}
		}
		e.pendingMass = e.pendingMass[:0]
	}
	return nil
}

// move records a pending slot move, overwriting an earlier move of the
// same slot within this checkpoint (a parked slot rebound to an arrival).
func (sh *cell) move(slot int, pos geom.Point) {
	if sh.moveEpoch[slot] == sh.epoch {
		sh.movedPos[sh.pendingMove[slot]] = pos
		return
	}
	sh.moveEpoch[slot] = sh.epoch
	sh.pendingMove[slot] = int32(len(sh.moved))
	sh.moved = append(sh.moved, slot)
	sh.movedPos = append(sh.movedPos, pos)
}

// revise records a pending slot revision at most once per checkpoint,
// upgrading mass-only to full when both happen (a slot parked and rebound
// to a different user); only the final row binding matters to ReviseUsers.
func (sh *cell) revise(slot int, level int8) {
	if sh.revEpoch[slot] == sh.epoch {
		if level > sh.revLevel[slot] {
			sh.revLevel[slot] = level
		}
		return
	}
	sh.revEpoch[slot] = sh.epoch
	sh.revLevel[slot] = level
	sh.revTouch = append(sh.revTouch, slot)
}

// runCells refreshes and steps every cell on the worker pool. Cells are
// independent (private instances, evaluators, and measurement scratch;
// shared state is read-only), so the pool is a pure wall-clock lever:
// results are bit-identical for any worker count. A single-worker engine
// steps the cells inline — no channel, no goroutines — so the Workers:1
// steady-state checkpoint allocates nothing.
func (e *Engine) runCells(cp int) error {
	if e.workers <= 1 {
		for _, sh := range e.cells {
			if err := e.runCell(sh, cp); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if err := e.runCell(e.cells[c], cp); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for c := range e.cells {
		next <- c
	}
	close(next)
	wg.Wait()
	return firstErr
}

// runCell applies one cell's pending batches and steps its engine.
func (e *Engine) runCell(sh *cell, cp int) error {
	if sh.fresh {
		sh.fresh = false
	} else if len(sh.moved) > 0 || len(sh.revTouch) > 0 {
		sh.revised = sh.revised[:0]
		sh.massOnly = sh.massOnly[:0]
		for _, slot := range sh.revTouch {
			if sh.revLevel[slot] == revLevelFull {
				sh.revised = append(sh.revised, slot)
			} else {
				sh.massOnly = append(sh.massOnly, slot)
			}
		}
		if err := sh.eng.ApplyExternal(sh.revised, sh.massOnly, sh.moved, sh.movedPos); err != nil {
			return fmt.Errorf("shard: cell %d: %w", sh.id, err)
		}
	}
	st, err := sh.eng.Step(cp)
	if err != nil {
		return fmt.Errorf("shard: cell %d: %w", sh.id, err)
	}
	// Step's slices are engine-owned and reused; keep cell-owned copies.
	sh.lastStep.TimeMin = st.TimeMin
	sh.lastStep.HitRatio = append(sh.lastStep.HitRatio[:0], st.HitRatio...)
	sh.lastStep.Replaced = append(sh.lastStep.Replaced[:0], st.Replaced...)
	sh.lastMass = sh.eng.Instance().TotalMass()
	if sh.traceMeas != nil {
		sh.captureServe()
	}
	return nil
}

// Run drives the whole timeline and aggregates per-checkpoint steps.
func (e *Engine) Run() (*Result, error) {
	res := &Result{
		Steps:        make([]Step, 0, e.checkpoints+1),
		Replacements: make([]int, len(e.cfg.Tracks)),
		Cells:        len(e.cells),
	}
	res.Steps = append(res.Steps, copyStep(e.baselineStep()))
	for cp := 1; cp <= e.checkpoints; cp++ {
		step, err := e.Checkpoint(cp)
		if err != nil {
			return nil, err
		}
		// Checkpoint's slices are engine-owned and reused; the result keeps
		// its own copies.
		res.Steps = append(res.Steps, copyStep(step))
	}
	for a := range res.Replacements {
		res.Replacements[a] = e.replacedBase[a]
		for _, sh := range e.cells {
			res.Replacements[a] += sh.eng.Replacements(a)
		}
	}
	res.Handoffs = e.handoffs
	res.Grows = e.grows
	return res, nil
}

// copyStep deep-copies a step whose slices alias engine-owned scratch.
func copyStep(st Step) Step {
	return Step{
		TimeMin:  st.TimeMin,
		HitRatio: append([]float64(nil), st.HitRatio...),
		Replaced: append([]bool(nil), st.Replaced...),
		Serve:    append([]cachesim.EventResult(nil), st.Serve...),
	}
}

// unsafeSizeofEventResult is unsafe.Sizeof(cachesim.EventResult{}), kept as
// a constant so memprof needs no unsafe import; a test guards the value.
const unsafeSizeofEventResult = 96

// MemoryFootprint returns the sharded engine's memory accounting: the sum
// of every cell's engine breakdown plus the cells' slot tables and batch
// scratch, with the coordinator's own state — the global instance (its
// whole footprint: topology, workload, and, for full instances, rank and
// reach state no cell reads), the membership maps, and the plan-phase
// scratch — under Coordinator. Build the global instance with
// scenario.NewCoordinator to keep that component to the topology, workload,
// and rank index alone.
func (e *Engine) MemoryFootprint() memprof.Footprint {
	var f memprof.Footprint
	for _, sh := range e.cells {
		f.Add(sh.eng.MemoryFootprint())
		var cellScratch int64
		cellScratch += int64(cap(sh.servers))*8 + int64(cap(sh.serverPts))*16 + int64(cap(sh.caps))*8
		cellScratch += int64(cap(sh.downLocal))*8 + int64(cap(sh.capLocal))*8
		cellScratch += int64(cap(sh.slots)+cap(sh.free)+cap(sh.pendingMove)+cap(sh.moveEpoch)+cap(sh.revEpoch)) * 4
		cellScratch += int64(cap(sh.revTouch)+cap(sh.revised)+cap(sh.massOnly)+cap(sh.moved)) * 8
		cellScratch += int64(cap(sh.revLevel)) + int64(cap(sh.overflow))*4
		cellScratch += int64(cap(sh.movedPos)) * 16
		cellScratch += int64(cap(sh.lastStep.HitRatio)+cap(sh.lastBaseline))*8 + int64(cap(sh.lastStep.Replaced))
		cellScratch += int64(cap(sh.lastServe)) * int64(unsafeSizeofEventResult)
		for _, l := range sh.lastLats {
			cellScratch += int64(cap(l)) * 8
		}
		f.Scratch += cellScratch
	}
	g := e.cfg.Instance.MemoryFootprint()
	f.Coordinator += g.Total()
	f.Coordinator += int64(cap(e.positions))*16 + int64(cap(e.owner))*4
	for k := range e.refs {
		f.Coordinator += int64(cap(e.refs[k])) * 8
	}
	f.Coordinator += int64(cap(e.refs)) * 24
	f.Coordinator += int64(cap(e.zeroRow)+cap(e.aggNum)+cap(e.aggStep.HitRatio))*8 +
		int64(cap(e.aggStep.Replaced)) + int64(cap(e.planScratch))*8 + int64(cap(e.refBuf))*8 +
		int64(cap(e.replacedBase))*8
	f.Coordinator += int64(cap(e.aggServe))*int64(unsafeSizeofEventResult) +
		int64(cap(e.mergeBuf))*8 + int64(cap(e.mergeIdx))*8
	return f
}

// Run builds a sharded engine and drives the full timeline.
func Run(cfg Config, src *rng.Source) (*Result, error) {
	e, err := NewEngine(cfg, src)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
