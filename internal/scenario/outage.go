// This file is the server-outage seam: SetServersDown takes servers out of
// (or back into) service and incrementally refreshes every derived quantity
// — link rates, relay rates, the server masks, and (marked stale, then
// re-derived on the next UserMask call) the user masks — so a warm
// placement evaluator can repair over the reduced server set exactly as if
// the instance had been built without the down servers.
//
// An outage changes no association geometry: the topology still lists the
// down server as covering its users (so recovery restores the same links),
// but its rates are pinned to 0, it leaves every relay candidate set, and
// the up-servers mask drops its bit so no reachability row — average or
// faded — ever includes it. Placement gains over its cleared user masks are
// zero, and the greedy algorithms never place on a zero-gain column, so a
// repair after SetServersDown is bit-identical to a cold solve on the same
// reduced instance (pinned by the outage equivalence tests).
package scenario

import (
	"fmt"
	mbits "math/bits"

	"trimcaching/internal/bitset"
)

// searchGreater returns the first rank j with thr[order[j]] > x in a rank
// row order that sorts thr ascending — the rank-prefix cutoff
// |{j : thr[order[j]] ≤ x}| of the verdicts a rate x qualifies. It is the
// one cutoff search: the flip ranges, the outage refresh and the fused
// kernel's prefix walk all stop at the same predicate.
func searchGreater(thr []float64, order []uint16, x float64) int {
	lo, hi := 0, len(order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if thr[order[mid]] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// serverDown reports whether server m is out of service.
func (ins *Instance) serverDown(m int) bool { return ins.down != nil && ins.down[m] }

// DownServers returns the ascending list of out-of-service servers.
func (ins *Instance) DownServers() []int {
	var list []int
	for m := range ins.down {
		if ins.down[m] {
			list = append(list, m)
		}
	}
	return list
}

// SetServersDown marks the given servers out of service (down=true) or back
// in service (down=false) and incrementally refreshes the instance, exactly
// as ReviseUsers would after an equivalent rate change: down servers' link
// rates drop to 0, relay rates are recomputed for their users, and the
// server masks lose (or regain) the servers' bits. When any server toggles,
// the user masks are marked stale; the next UserMask call re-derives them.
// The returned delta follows the ReviseUsers contract — Pairs lists every
// (server, model) pair whose user mask changed for a user with request
// mass, so a warm-started evaluator repairs over exactly the affected
// columns. Servers already in the requested state are ignored; if nothing
// toggles, the delta carries the current generation and an evaluator
// applies it as a no-op.
//
// The delta and its slices are owned by the instance and valid until the
// next update call, like every other update path.
func (ins *Instance) SetServersDown(servers []int, down bool) (*Delta, error) {
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	if ins.coordinator {
		return nil, fmt.Errorf("scenario: coordinator instances carry no rate or reachability state to update")
	}
	for _, m := range servers {
		if m < 0 || m >= M {
			return nil, fmt.Errorf("scenario: server %d out of range [0,%d)", m, M)
		}
	}
	if ins.down == nil {
		ins.down = make([]bool, M)
	}
	ins.ensureUpdScratch()
	if ins.updDelta.Pairs == nil {
		ins.updDelta.Pairs = bitset.New(M * I)
	} else {
		ins.updDelta.Pairs.Zero()
	}
	pairs := ins.updDelta.Pairs

	// Toggled servers: only actual state changes do work. The word-packed
	// toggled mask drives the relay flips below — one masked word op per
	// (user, model, word), the same shape as flipUserRows' relay crossings.
	sw := ins.serverWords
	tog := make([]uint64, sw)
	toggled := 0
	up := bitset.Set(ins.updFullRow)
	for _, m := range servers {
		if ins.down[m] == down {
			continue
		}
		ins.down[m] = !ins.down[m]
		tog[m>>6] |= 1 << uint(m&63)
		toggled++
		if down {
			up.Clear(m)
		} else {
			up.Set(m)
		}
	}
	if toggled == 0 {
		ins.updDelta.Gen = ins.gen
		ins.updDelta.Users = ins.updUsers[:0]
		return &ins.updDelta, nil
	}

	// Link rates of toggled servers: zeroed on outage, recomputed from the
	// unchanged geometry on recovery (associations never changed, so the
	// restored rates are bit-identical to the pre-outage values).
	dirty := ins.updDirty
	for wd := 0; wd < sw; wd++ {
		for word := tog[wd]; word != 0; word &= word - 1 {
			m := wd<<6 | mbits.TrailingZeros64(word)
			load := ins.topo.Load(m)
			for _, k := range ins.topo.UsersOf(m) {
				if down {
					ins.avgRate[m*K+k] = 0
				} else {
					rate, err := ins.wcfg.FadedRateBps(ins.topo.Distance(m, k), load, ins.shadowGain(m, k))
					if err != nil {
						return nil, fmt.Errorf("scenario: rate m=%d k=%d: %w", m, k, err)
					}
					ins.avgRate[m*K+k] = rate
				}
				dirty[k] = true
			}
		}
	}

	// One serial pass over the users, ascending. Users of a toggled server
	// take the full fused recompute (their relay rate and direct verdicts
	// both change); every other user only loses or regains the toggled
	// servers' relay-broadcast bits, on exactly the rank prefix of models
	// its unchanged relay rate qualifies — two binary-searched bounds
	// instead of an O(I) rescan. Changed bits collect in worker 0's touched
	// array, as in ReviseUsers.
	for len(ins.updWorkers) < 1 {
		ins.updWorkers = append(ins.updWorkers, newUpdWorker(M, I, sw))
	}
	uw := ins.updWorkers[0]
	clear(uw.touched)
	dirtyUsers := ins.updUsers[:0]
	for k := 0; k < K; k++ {
		track := ins.userHasMass[k]
		if dirty[k] {
			dirty[k] = false
			dirtyUsers = append(dirtyUsers, k)
			covering := ins.topo.ServersCovering(k)
			best := 0.0
			for _, m := range covering {
				if r := ins.avgRate[m*K+k]; r > best {
					best = r
				}
			}
			ins.bestRelay[k] = best
			ins.recomputeUserRows(k, covering, uw, track)
			continue
		}
		relay := ins.bestRelay[k]
		if relay <= 0 {
			continue // uncovered: all rows are zero and stay zero
		}
		relOrder := ins.flipRelOrder[k*I : (k+1)*I]
		cut := searchGreater(ins.minRelRate[k*I:(k+1)*I], relOrder, relay)
		rows := ins.reachSrv[k*I*sw : (k+1)*I*sw]
		for j := 0; j < cut; j++ {
			i := int(relOrder[j])
			row := rows[i*sw : (i+1)*sw]
			for wd, word := range tog {
				if ins.capBlock != nil {
					// Capacity-blocked bits were never set and must not
					// come back on recovery; masking the outage clears too
					// keeps both directions exact.
					word &^= ins.capBlock[i*sw+wd]
				}
				if word == 0 {
					continue
				}
				if down {
					row[wd] &^= word
				} else {
					row[wd] |= word
				}
				if track {
					uw.touched[i*sw+wd] |= word
				}
			}
		}
	}
	ins.updUsers = dirtyUsers

	ins.foldTouchedPairs(pairs, uw.touched)
	ins.usrStale = true

	ins.gen++
	ins.updDelta.Gen = ins.gen
	ins.updDelta.Users = dirtyUsers
	return &ins.updDelta, nil
}
