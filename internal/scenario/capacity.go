// This file is the partial-capacity degradation seam: SetServerCapacity
// shrinks (or restores) one server's storage budget and incrementally
// refreshes the server masks (the user masks are re-derived from them on
// the next UserMask call) so a warm placement evaluator can repair over
// the reduced instance exactly as if it had been built at that capacity
// from the start.
//
// Capacity is orthogonal to the radio plane: a degraded server keeps its
// link rates, its users' association geometry, and its role as a relay
// last hop — it just cannot be the serving server for any model that no
// longer fits its budget on its own (sizeBits[i] > capBits[m]). Those
// (server, model) pairs are packed into capBlock, in the placement-column
// layout, and every reachability fill AND-NOTs them out; the fused
// measurement kernel masks placement columns with the same words, so the
// average-channel, per-realization, and fused paths all agree bit for bit.
//
// The returned delta marks the whole column of the resized server — every
// (m, i) pair, toggled or not — because the server's byte budget is solver
// state the reachability masks cannot express: a shrink that blocks no
// model outright can still overflow the deduplicated storage of the
// currently cached set, and a warm Repair must re-solve rather than
// short-circuit on an empty pair set.
package scenario

import (
	"fmt"

	"trimcaching/internal/bitset"
)

// SetServerCapacity sets server m's storage budget to bits (negative
// restores the unconstrained default) and incrementally refreshes the
// instance: every model larger than the budget loses server m's bit from
// the server masks, and previously blocked models that fit again regain
// exactly the verdict a fresh build would store — so the instance is
// bit-identical to a cold build at the same capacity, and a later restore
// is a bit-exact round trip. When a bit toggles, the user masks are marked
// stale; the next UserMask call re-derives them.
//
// The returned delta follows the SetServersDown contract, with one
// deliberate widening: when the budget value changes, Pairs carries server
// m's whole column — the byte budget itself is placement-solver state, so
// a warm Repair must re-solve even when no reachability bit toggled. A
// call that leaves the budget unchanged returns a no-op delta at the
// current generation. The delta and its slices are owned by the instance
// and valid until the next update call.
func (ins *Instance) SetServerCapacity(m int, bits int64) (*Delta, error) {
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	if ins.coordinator {
		return nil, fmt.Errorf("scenario: coordinator instances carry no rate or reachability state to update")
	}
	if m < 0 || m >= M {
		return nil, fmt.Errorf("scenario: server %d out of range [0,%d)", m, M)
	}
	if bits < 0 {
		bits = -1
	}
	if ins.capBits == nil {
		if bits < 0 {
			// Restoring a budget that was never constrained: nothing to do,
			// and no state to allocate.
			return ins.noopDelta(), nil
		}
		ins.capBits = make([]int64, M)
		for x := range ins.capBits {
			ins.capBits[x] = -1
		}
		ins.capBlock = make([]uint64, I*ins.serverWords)
	}
	if ins.capBits[m] == bits {
		return ins.noopDelta(), nil
	}
	ins.capBits[m] = bits
	ins.ensureUpdScratch()

	// Toggled models: blocked-state changes under the new budget. The
	// capBlock bits flip first so every recompute below sees the new
	// verdicts.
	sw := ins.serverWords
	mw, mb := m>>6, uint64(1)<<uint(m&63)
	var togModels []int // scratch-free would need a field; the call is event-rate, not checkpoint-rate
	for i := 0; i < I; i++ {
		blocked := bits >= 0 && ins.sizeBits[i] > float64(bits)
		if blocked == (ins.capBlock[i*sw+mw]&mb != 0) {
			continue
		}
		if blocked {
			ins.capBlock[i*sw+mw] |= mb
		} else {
			ins.capBlock[i*sw+mw] &^= mb
		}
		togModels = append(togModels, i)
	}

	pairs := ins.resetPairs()
	// The whole column is marked whenever the budget value changed: the
	// byte budget is solver-consumed state the masks cannot carry.
	for i := 0; i < I; i++ {
		pairs.Set(m*I + i)
	}

	// If the server is down, no reachability bit carries it anyway — rows
	// only change on recovery, which replays capBlock through its masked
	// restore. Only the block state and the delta needed updating.
	if len(togModels) == 0 || ins.serverDown(m) {
		if bits < 0 {
			ins.maybeDropCapState()
		}
		ins.gen++
		ins.updDelta.Gen = ins.gen
		ins.updDelta.Users = ins.updUsers[:0]
		return &ins.updDelta, nil
	}

	// One serial pass over the users, ascending, restoring each toggled
	// (k, i, m) bit to the verdict fillReachRows would store: cleared when
	// newly blocked; otherwise the direct verdict for m's own users (their
	// covering rates are positive while m is up) and the relay verdict for
	// everyone else. The server's whole column is already in the delta, so
	// only the rows change; the user masks are marked stale after.
	covered := ins.updDirty
	for _, k := range ins.topo.UsersOf(m) {
		covered[k] = true
	}
	for k := 0; k < K; k++ {
		direct := 0.0
		if covered[k] {
			covered[k] = false
			direct = ins.avgRate[m*K+k]
		}
		relay := ins.bestRelay[k]
		rows := ins.reachSrv[k*I*sw : (k+1)*I*sw]
		for _, i := range togModels {
			want := false
			if ins.capBlock[i*sw+mw]&mb == 0 {
				if direct > 0 {
					want = direct >= ins.minDirRate[k*I+i]
				} else {
					want = relay > 0 && relay >= ins.minRelRate[k*I+i]
				}
			}
			if has := rows[i*sw+mw]&mb != 0; has != want {
				rows[i*sw+mw] ^= mb
			}
		}
	}
	ins.usrStale = true

	if bits < 0 {
		ins.maybeDropCapState()
	}
	ins.gen++
	ins.updDelta.Gen = ins.gen
	ins.updDelta.Users = ins.updUsers[:0]
	return &ins.updDelta, nil
}

// noopDelta returns the reused delta at the current generation with no
// changed pairs — an evaluator applies it as a no-op.
func (ins *Instance) noopDelta() *Delta {
	ins.ensureUpdScratch()
	ins.resetPairs()
	ins.updDelta.Gen = ins.gen
	ins.updDelta.Users = ins.updUsers[:0]
	return &ins.updDelta
}

// resetPairs returns the reused delta's pair set, zeroed.
func (ins *Instance) resetPairs() bitset.Set {
	if ins.updDelta.Pairs == nil {
		ins.updDelta.Pairs = bitset.New(ins.NumServers() * ins.NumModels())
	} else {
		ins.updDelta.Pairs.Zero()
	}
	return ins.updDelta.Pairs
}

// maybeDropCapState restores the nil fast path when no server is
// constrained anymore: a fully restored instance is indistinguishable from
// — and as cheap as — one that was never degraded, so the per-row AND-NOT
// and the fused kernel's column masking disappear with the state.
func (ins *Instance) maybeDropCapState() {
	for _, b := range ins.capBits {
		if b >= 0 {
			return
		}
	}
	ins.capBits, ins.capBlock = nil, nil
}
