// This file is the sharded engine's scenario-event surface: server outages
// mapped onto cell-local server indices, forced re-placements, queued
// global popularity revisions, and mid-timeline library growth — the
// operations experiments.Target replays scenario events through, expressed
// against cell ownership.
package shard

import (
	"fmt"
	"sort"

	"trimcaching/internal/scenario"
)

// SetServersDown takes the given global servers out of (or back into)
// service. Each server belongs to exactly one cell — outages follow the
// server partition, not user ownership — so the operation becomes one
// scenario-level SetServersDown per affected cell, threaded through that
// cell's evaluator and warm-start state like any refresh. The down set is
// remembered per cell and re-applied whenever the cell is rebuilt (grows,
// library growth), so outages survive rebuilds. Call between checkpoints;
// the caller decides when placements react (typically ForceReplace).
func (e *Engine) SetServersDown(servers []int, down bool) error {
	M := e.cfg.Instance.NumServers()
	for _, m := range servers {
		if m < 0 || m >= M {
			return fmt.Errorf("shard: server %d out of range [0,%d)", m, M)
		}
	}
	for _, sh := range e.cells {
		var local []int
		for _, m := range servers {
			j := sort.SearchInts(sh.servers, m)
			if j < len(sh.servers) && sh.servers[j] == m {
				local = append(local, j)
			}
		}
		if len(local) == 0 {
			continue
		}
		sort.Ints(local)
		if err := sh.eng.SetServersDown(local, down); err != nil {
			return fmt.Errorf("shard: cell %d: %w", sh.id, err)
		}
		if down {
			merged := append(sh.downLocal, local...)
			sort.Ints(merged)
			sh.downLocal = dedupInts(merged)
		} else {
			kept := sh.downLocal[:0]
			for _, j := range sh.downLocal {
				if !containsInt(local, j) {
					kept = append(kept, j)
				}
			}
			sh.downLocal = kept
		}
	}
	return nil
}

// SetServerCapacity degrades the given global server to the given storage
// budget in bytes (negative restores its configured capacity). Each server
// belongs to exactly one cell, so the operation becomes one engine-level
// SetServerCapacity against that cell's local index, threaded through the
// cell's evaluator and warm-start state like any refresh. The override is
// remembered per cell and re-applied whenever the cell is rebuilt (grows,
// library growth), so degradations survive rebuilds. Call between
// checkpoints; the caller decides when placements react (typically
// ForceReplace — a degradation trigger never fires on a restore).
func (e *Engine) SetServerCapacity(m int, bytes int64) error {
	M := e.cfg.Instance.NumServers()
	if m < 0 || m >= M {
		return fmt.Errorf("shard: server %d out of range [0,%d)", m, M)
	}
	for _, sh := range e.cells {
		j := sort.SearchInts(sh.servers, m)
		if j >= len(sh.servers) || sh.servers[j] != m {
			continue
		}
		if err := sh.eng.SetServerCapacity(j, bytes); err != nil {
			return fmt.Errorf("shard: cell %d: %w", sh.id, err)
		}
		if bytes < 0 {
			if sh.capLocal != nil {
				sh.capLocal[j] = -1
			}
			return nil
		}
		if sh.capLocal == nil {
			sh.capLocal = make([]int64, len(sh.servers))
			for x := range sh.capLocal {
				sh.capLocal[x] = -1
			}
		}
		sh.capLocal[j] = bytes
		return nil
	}
	return fmt.Errorf("shard: server %d owned by no cell", m)
}

// dedupInts removes adjacent duplicates from a sorted slice, in place.
func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// containsInt reports whether sorted slice s contains v.
func containsInt(s []int, v int) bool {
	j := sort.SearchInts(s, v)
	return j < len(s) && s[j] == v
}

// ForceReplace re-places every track in every cell on the current cell
// instances and re-baselines them on checkpoint cp's replacement stream —
// the sharded analogue of calling dynamics.Engine.Replace for each track.
// The gallery uses it on outage and recovery events: a degradation trigger
// never fires on recovery (hit ratios only improve), so returning capacity
// must be re-placed onto explicitly.
func (e *Engine) ForceReplace(cp int) error {
	for _, sh := range e.cells {
		for a := range e.cfg.Tracks {
			if _, err := sh.eng.Replace(a, cp); err != nil {
				return fmt.Errorf("shard: cell %d: %w", sh.id, err)
			}
		}
	}
	return nil
}

// ReviseUserMass queues global users whose probability rows the caller
// swapped in the global workload (workload.SetUserProbRow) since the last
// checkpoint. The next Checkpoint's plan phase re-binds each queued user's
// owning slot to the new row and revises it through ReviseUsers' mass-only
// path, deduplicated with any movement or ownership change the user also
// has that checkpoint. Deadline and inference rows must stay bound — only
// popularity may change through this path.
func (e *Engine) ReviseUserMass(users []int) error {
	K := e.cfg.Instance.NumUsers()
	for _, g := range users {
		if g < 0 || g >= K {
			return fmt.Errorf("shard: user %d out of range [0,%d)", g, K)
		}
	}
	e.pendingMass = append(e.pendingMass, users...)
	return nil
}

// GrowLibrary replaces the global instance with one carrying a grown model
// library (and the matching wider workload) and rebuilds every cell over
// it at the current user positions: mid-timeline library churn, the shard
// layer's grow-on-overflow path generalized to a coordinated all-cell
// rebuild. The new instance must describe the same deployment — same
// servers, same users at the engine's current positions — with NumModels
// at least the old count; a coordinator instance (scenario.NewCoordinator)
// is the intended shape, exactly as at construction. Placement columns of
// retained models are re-solved from scratch per cell (counted into each
// track's replacement totals); per-cell down sets are re-applied. Call
// between checkpoints: the rebuilt cells keep absorbing the next
// checkpoint's walk normally.
func (e *Engine) GrowLibrary(newIns *scenario.Instance) error {
	old := e.cfg.Instance
	if newIns == nil {
		return fmt.Errorf("shard: a replacement instance is required")
	}
	if newIns.Shadowed() {
		return fmt.Errorf("shard: shadowed instances are not shardable (per-link gains are index-keyed)")
	}
	if newIns.NumServers() != old.NumServers() || newIns.NumUsers() != old.NumUsers() {
		return fmt.Errorf("shard: grown instance is %dx%d servers x users, want %dx%d",
			newIns.NumServers(), newIns.NumUsers(), old.NumServers(), old.NumUsers())
	}
	if newIns.NumModels() < old.NumModels() {
		return fmt.Errorf("shard: grown instance has %d models, fewer than the current %d",
			newIns.NumModels(), old.NumModels())
	}
	for k, p := range newIns.Topology().UserPositions() {
		if p != e.positions[k] {
			return fmt.Errorf("shard: grown instance's user %d is at %v, engine tracks %v", k, p, e.positions[k])
		}
	}
	e.cfg.Instance = newIns
	e.zeroRow = make([]float64, newIns.NumModels())
	for _, sh := range e.cells {
		locals := make([]int, 0, sh.local)
		for _, g := range sh.slots {
			if g >= 0 {
				locals = append(locals, int(g))
			}
		}
		sort.Ints(locals)
		for a := range e.cfg.Tracks {
			e.replacedBase[a] += sh.eng.Replacements(a) + 1
		}
		if err := e.buildCell(sh, locals); err != nil {
			return err
		}
	}
	return nil
}

// InitialStep returns the aggregated t = 0 step (the cells' initial
// baselines), for callers that drive Checkpoint themselves instead of Run.
// Like Checkpoint, the returned step's slices are engine-owned and reused.
func (e *Engine) InitialStep() Step { return e.baselineStep() }

// Replacements returns track a's re-placements summed over cells so far,
// including those of engines retired by grows and library growth (each
// cell's growth re-solve counts as one).
func (e *Engine) Replacements(a int) int {
	n := e.replacedBase[a]
	for _, sh := range e.cells {
		n += sh.eng.Replacements(a)
	}
	return n
}
