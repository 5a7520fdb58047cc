// This file is the fused fading-measurement kernel: score placements
// under a block of fading realizations without materializing the
// K×I×words reachability indicator. Production measurement
// (sim.FadingSession.Evaluate, behind every dynamics and shard checkpoint)
// goes through FadedHitMassBlock, which draws its own gains. FadedHitMass
// takes an explicit gain matrix instead, which the zeroed-gain pins and
// the fuzz target need. The two-pass path (FadedReach filling Reach.bits,
// then an evaluator streaming them again) is the reference both are pinned
// to; its one production caller is sim.FadingSession.EvaluateUnfused.
//
// The kernel is realization-blocked, multi-placement and word-parallel.
// Once per call it transposes every placement view into per-server model
// rows; once per user and block it gathers the user's link data — covering
// rates in a CSR link table, relay rates — and ORs the relay-source rows;
// once per user and chunk of at most fadeChunk realizations it sorts the
// chunk's positive rates and walks each threshold rank row once, leaving a
// model bit mask per (link, realization) and per realization's relay. Each
// view's hits are then a handful of word ANDs and ORs over those masks,
// for any server or model count. Hit masses accumulate per (realization,
// placement) in ascending (k, model) order, so results are bit-identical
// to the two-pass path and independent of block size: the same hit sets,
// the same float add order.
package scenario

import (
	"fmt"
	mbits "math/bits"

	"trimcaching/internal/bitset"
	"trimcaching/internal/rng"
)

// ServerColumns is the fused measurement kernel's read-only view of a
// placement: for every model, the word-packed set of servers caching it.
// placement.Placement implements it; keeping the seam here lets the kernel
// consume placements without scenario importing placement.
type ServerColumns interface {
	// PackedServerColumns returns every per-model server column
	// concatenated, laid out [i*words + w] with words = bitset.Words(M),
	// bit m set iff server m caches model i. The slice must stay valid and
	// unmodified for the duration of the scoring call.
	PackedServerColumns() []uint64
}

// fadeChunk is the most realizations whose rank prefixes one scan of a
// user's rank rows builds. It bounds the snapshot scratch at fadeChunk·M
// model masks.
const fadeChunk = 8

// fadeEvent is one stop of a rank scan: a positive rate and the snapshot
// slot that receives the prefix of thresholds at or below it.
type fadeEvent struct {
	rate float64
	slot int
}

// FadeScratch owns the reusable state of the fused measurement kernel: the
// CSR link table (per-user covering links in ascending server order), the
// per-link rate and per-user relay tables for one realization block, the
// per-server placement rows, and one realization chunk's rank-prefix
// snapshots. Allocate once per goroutine with MakeFadeScratch and reuse
// across calls; the per-block and per-view tables grow on demand, so
// steady-state calls perform no allocation.
type FadeScratch struct {
	linkStart []int32     // linkStart[k]..linkStart[k+1]: user k's link slots
	cursor    []int32     // per-user fill cursor (m-major rate fill)
	rates     []float64   // rates[slot*block + r]
	relay     []float64   // relay[k*block + r]
	rowBuf    []float64   // sampled gains of one server's users × block realizations
	hits      []uint64    // one view's hit mask over models, Words(I)
	dirSrv    []int32     // chunk realization c's positive-rate covering servers at [c*M:]
	zeroSrv   []int32     // chunk realization c's zero-rate covering servers at [c*M:]
	events    []fadeEvent // one rank scan's stops, fadeChunk*M
	dirSnap   []uint64    // direct rank prefix of dirSrv[x] at [x*Words(I):]
	relSnap   []uint64    // relay rank prefix of chunk realization c at [c*Words(I):]
	srvRows   []uint64    // per-server model rows, [(a*M + m)*Words(I) + w]
	relayRows []uint64    // one user's relay-source union per view, [a*Words(I) + w]
	cols      [][]uint64
}

// MemoryBytes returns the heap bytes the scratch owns at its current
// grown-to capacity.
func (s *FadeScratch) MemoryBytes() int64 {
	n := int64(cap(s.linkStart)+cap(s.cursor)+cap(s.dirSrv)+cap(s.zeroSrv)) * 4
	n += int64(cap(s.rates)+cap(s.relay)+cap(s.rowBuf)) * 8
	n += int64(cap(s.hits)+cap(s.dirSnap)+cap(s.relSnap)+cap(s.srvRows)+cap(s.relayRows)) * 8
	n += int64(cap(s.events)) * 16
	n += int64(cap(s.cols)) * 24
	return n
}

// MakeFadeScratch allocates a reusable scratch for FadedHitMass and
// FadedHitMassBlock.
func (ins *Instance) MakeFadeScratch() *FadeScratch {
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	links := 0
	for k := 0; k < K; k++ {
		links += len(ins.topo.ServersCovering(k))
	}
	return &FadeScratch{
		linkStart: make([]int32, K+1),
		cursor:    make([]int32, K),
		rates:     make([]float64, links),
		relay:     make([]float64, K),
		hits:      make([]uint64, bitset.Words(I)),
		dirSrv:    make([]int32, fadeChunk*M),
		zeroSrv:   make([]int32, fadeChunk*M),
		events:    make([]fadeEvent, fadeChunk*M),
		dirSnap:   make([]uint64, fadeChunk*M*bitset.Words(I)),
		relSnap:   make([]uint64, fadeChunk*bitset.Words(I)),
	}
}

// prep validates the scratch against the instance, rebuilds the CSR link
// table from the current topology (user movement re-shapes it, so it is
// O(K)-refreshed per call), and sizes the per-block tables.
func (s *FadeScratch) prep(ins *Instance, block int) error {
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	if len(s.linkStart) != K+1 || len(s.hits) != bitset.Words(I) || len(s.dirSrv) != fadeChunk*M {
		return fmt.Errorf("scenario: fade scratch dims do not match instance")
	}
	n := int32(0)
	for k := 0; k < K; k++ {
		s.linkStart[k] = n
		n += int32(len(ins.topo.ServersCovering(k)))
	}
	s.linkStart[K] = n
	if need := int(n) * block; cap(s.rates) < need {
		s.rates = make([]float64, need)
	} else {
		s.rates = s.rates[:need]
	}
	if need := K * block; cap(s.relay) < need {
		s.relay = make([]float64, need)
	} else {
		s.relay = s.relay[:need]
	}
	return nil
}

// gatherCols resolves and validates the placement views' column slices.
func (s *FadeScratch) gatherCols(views []ServerColumns, words int) ([][]uint64, error) {
	if cap(s.cols) < len(views) {
		s.cols = make([][]uint64, len(views))
	}
	cols := s.cols[:len(views)]
	for a, v := range views {
		cols[a] = v.PackedServerColumns()
		if len(cols[a]) != words {
			return nil, fmt.Errorf("scenario: view %d has %d column words, want %d", a, len(cols[a]), words)
		}
	}
	return cols, nil
}

// fillServerRows transposes the placement columns into per-server model
// rows: row (a, m) has bit i set iff view a caches model i on server m, m
// is up, and m's storage budget admits i — exactly the (server, model)
// bits the two-pass path can leave set in a reachability mask. Down
// servers keep empty rows, so they serve neither directly nor as a relay
// source. The caller's columns are read-only (they alias live
// placements), so the rows live in scratch-owned memory, grown once and
// then reused; the per-view relay-union buffer is sized here too.
func (ins *Instance) fillServerRows(cols [][]uint64, s *FadeScratch) {
	M, I, sw := ins.NumServers(), ins.NumModels(), ins.serverWords
	wi := bitset.Words(I)
	if need := len(cols) * M * wi; cap(s.srvRows) < need {
		s.srvRows = make([]uint64, need)
	} else {
		s.srvRows = s.srvRows[:need]
		clear(s.srvRows)
	}
	if need := len(cols) * wi; cap(s.relayRows) < need {
		s.relayRows = make([]uint64, need)
	} else {
		s.relayRows = s.relayRows[:need]
	}
	up, capBlock := ins.updFullRow, ins.capBlock
	for a, col := range cols {
		rows := s.srvRows[a*M*wi : (a+1)*M*wi]
		for i := 0; i < I; i++ {
			iw, bit := i>>6, uint64(1)<<uint(i&63)
			for w := 0; w < sw; w++ {
				v := col[i*sw+w] & up[w]
				if capBlock != nil {
					v &^= capBlock[i*sw+w]
				}
				for ; v != 0; v &= v - 1 {
					m := w<<6 | mbits.TrailingZeros64(v)
					rows[m*wi+iw] |= bit
				}
			}
		}
	}
}

// fadeRates fills the per-link faded rates (covering pairs only) and the
// per-user best relay rates for one realization, in the dense [m*K+k]
// layout FadedReach consumes.
func (ins *Instance) fadeRates(gains [][]float64, rates, relay []float64) error {
	M, K := ins.NumServers(), ins.NumUsers()
	// Only covering links are written and only covering links are read, so
	// the rate scratch needs no clearing between realizations — which is why
	// a down server's links are written as 0 rather than skipped.
	for m := 0; m < M; m++ {
		if ins.serverDown(m) {
			for _, k := range ins.topo.UsersOf(m) {
				rates[m*K+k] = 0
			}
			continue
		}
		load := ins.topo.Load(m)
		for _, k := range ins.topo.UsersOf(m) {
			r, err := ins.wcfg.FadedRateBps(ins.topo.Distance(m, k), load, ins.shadowGain(m, k)*gains[m][k])
			if err != nil {
				return fmt.Errorf("scenario: faded rate m=%d k=%d: %w", m, k, err)
			}
			rates[m*K+k] = r
		}
	}
	for k := 0; k < K; k++ {
		relay[k] = 0
		for _, m := range ins.topo.ServersCovering(k) {
			if rates[m*K+k] > relay[k] {
				relay[k] = rates[m*K+k]
			}
		}
	}
	return nil
}

// fillLinkRatesGains fills the CSR rate table from an explicit gain matrix
// (block = 1): the same FadedRateBps calls, in the same m-major order, as
// fadeRates — only the storage layout differs.
func (ins *Instance) fillLinkRatesGains(gains [][]float64, s *FadeScratch) error {
	K := ins.NumUsers()
	copy(s.cursor, s.linkStart[:K])
	for m := 0; m < ins.NumServers(); m++ {
		if ins.serverDown(m) {
			// The CSR scratch is not cleared between calls, so down links
			// are written as 0, not skipped.
			for _, k := range ins.topo.UsersOf(m) {
				s.rates[s.cursor[k]] = 0
				s.cursor[k]++
			}
			continue
		}
		load := ins.topo.Load(m)
		for _, k := range ins.topo.UsersOf(m) {
			slot := s.cursor[k]
			s.cursor[k]++
			r, err := ins.wcfg.FadedRateBps(ins.topo.Distance(m, k), load, ins.shadowGain(m, k)*gains[m][k])
			if err != nil {
				return fmt.Errorf("scenario: faded rate m=%d k=%d: %w", m, k, err)
			}
			s.rates[slot] = r
		}
	}
	ins.fillLinkRelay(1, s)
	return nil
}

// fillLinkRatesSampled draws one realization block's gains inline and fills
// the CSR rate table. Realization j consumes srcs[j] exactly as
// SampleGainsInto would — every server row's K draws in ascending user
// order — so the rates are bit-identical to sampling a full gain matrix and
// feeding it through the per-realization path. Only covering links of up
// servers are read, so every other draw advances the stream without its
// logarithm (rng.Source.SkipExp). The (distance, load)-dependent SNR and
// bandwidth factors are hoisted per link across the block
// (wireless.Config.LinkRate), leaving one log2 per (link, realization).
func (ins *Instance) fillLinkRatesSampled(srcs []*rng.Source, s *FadeScratch) error {
	M, K := ins.NumServers(), ins.NumUsers()
	block := len(srcs)
	if need := block * K; cap(s.rowBuf) < need {
		s.rowBuf = make([]float64, need)
	}
	copy(s.cursor, s.linkStart[:K])
	for m := 0; m < M; m++ {
		users := ins.topo.UsersOf(m)
		// An outage must not shift the fading stream, so a down server's
		// draws are all consumed, none read.
		down := ins.serverDown(m)
		read := users
		if down {
			read = nil
		}
		n := len(read)
		for j, src := range srcs {
			row := s.rowBuf[j*n : (j+1)*n]
			k := 0
			for x, u := range read {
				for ; k < u; k++ {
					src.SkipExp()
				}
				row[x] = src.Exp()
				k++
			}
			for ; k < K; k++ {
				src.SkipExp()
			}
		}
		load := ins.topo.Load(m)
		for x, k := range users {
			slot := int(s.cursor[k])
			s.cursor[k]++
			rates := s.rates[slot*block : (slot+1)*block]
			if down {
				// The CSR scratch is reused across calls, so down links are
				// written as 0, not skipped.
				clear(rates)
				continue
			}
			lr, err := ins.wcfg.LinkRate(ins.topo.Distance(m, k), load)
			if err != nil {
				return fmt.Errorf("scenario: faded rate m=%d k=%d: %w", m, k, err)
			}
			sg := ins.shadowGain(m, k)
			for j := range rates {
				r, err := lr.RateBps(sg * s.rowBuf[j*n+x])
				if err != nil {
					return fmt.Errorf("scenario: faded rate m=%d k=%d: %w", m, k, err)
				}
				rates[j] = r
			}
		}
	}
	ins.fillLinkRelay(block, s)
	return nil
}

// fillLinkRelay fills the per-user best relay rates from the CSR rate
// table: the max over the user's covering links in ascending server order
// with a strict > compare — the same reduction fadeRates performs.
func (ins *Instance) fillLinkRelay(block int, s *FadeScratch) {
	K := ins.NumUsers()
	for k := 0; k < K; k++ {
		lo, hi := int(s.linkStart[k]), int(s.linkStart[k+1])
		for j := 0; j < block; j++ {
			best := 0.0
			for t := lo; t < hi; t++ {
				if v := s.rates[t*block+j]; v > best {
					best = v
				}
			}
			s.relay[k*block+j] = best
		}
	}
}

// checkGains validates the fading gain matrix dimensions.
func (ins *Instance) checkGains(gains [][]float64) error {
	M, K := ins.NumServers(), ins.NumUsers()
	if len(gains) != M {
		return fmt.Errorf("scenario: gains has %d rows, want %d", len(gains), M)
	}
	for m := range gains {
		if len(gains[m]) != K {
			return fmt.Errorf("scenario: gains[%d] has %d cols, want %d", m, len(gains[m]), K)
		}
	}
	return nil
}

// FadedHitMass computes, for every placement view, the expected request
// mass served within QoS under one Rayleigh-fading realization — the fused
// equivalent of FadedReach followed by HitRatioWithReach's AND-scoring.
// dst[a] receives the unnormalized hit mass of views[a] (divide by
// TotalMass for eq. 2). scratch may be nil (a fresh one is allocated).
//
// Per (k,i) the kernel reproduces the verdict fillReachRows would store —
// relay verdict broadcast, covering servers patched with their direct
// verdicts — but decides whole model words at once: the instance's
// threshold rank index gives each verdict set as a rank prefix, turned
// into a model bit mask and ANDed with per-server placement rows. Each
// view's accumulator sees additions in ascending (k, model) order, exactly
// the order of the two-pass evaluator, so the paths agree bit-for-bit
// (pinned by the fused-equivalence tests).
//
// Only tests call it: it is the per-realization reference, with an explicit
// gain matrix, that TestFadedHitMassBlockMatchesPerRealization and
// FuzzFadedHitMassBlock pin FadedHitMassBlock against, and that placement's
// fused-kernel pins use (fusedVsUnfused in FuzzFadedHitRatios and
// TestFusedMatchesUnfusedProperty).
func (ins *Instance) FadedHitMass(gains [][]float64, views []ServerColumns, dst []float64, scratch *FadeScratch) error {
	if err := ins.checkGains(gains); err != nil {
		return err
	}
	if len(dst) != len(views) {
		return fmt.Errorf("scenario: %d outputs for %d views", len(dst), len(views))
	}
	if scratch == nil {
		scratch = ins.MakeFadeScratch()
	}
	if err := scratch.prep(ins, 1); err != nil {
		return err
	}
	cols, err := scratch.gatherCols(views, ins.NumModels()*ins.serverWords)
	if err != nil {
		return err
	}
	if err := ins.fillLinkRatesGains(gains, scratch); err != nil {
		return err
	}
	for a := range dst {
		dst[a] = 0
	}
	if len(views) == 0 {
		return nil
	}
	ins.fusedHitMassBlocked(1, cols, dst, scratch)
	return nil
}

// FadedHitMassBlock scores every view under a block of fading
// realizations drawn inline from srcs: realization j draws from srcs[j]
// exactly the gains SampleGainsInto would produce, and
// dst[j*len(views)+a] receives views[a]'s unnormalized hit mass under
// realization j. Results are bit-identical to len(srcs) FadedHitMass
// calls over sampled gain matrices — realizations never interact — while
// the placement transpose is paid once per call, the per-user gather
// and relay-source union once per block, and each user's rank scans once
// per chunk of up to fadeChunk realizations.
// scratch may be nil (a fresh one is allocated).
func (ins *Instance) FadedHitMassBlock(srcs []*rng.Source, views []ServerColumns, dst []float64, scratch *FadeScratch) error {
	block := len(srcs)
	if block == 0 {
		return fmt.Errorf("scenario: at least one fading source is required")
	}
	if len(dst) != block*len(views) {
		return fmt.Errorf("scenario: %d outputs for %d realizations x %d views", len(dst), block, len(views))
	}
	if scratch == nil {
		scratch = ins.MakeFadeScratch()
	}
	if err := scratch.prep(ins, block); err != nil {
		return err
	}
	cols, err := scratch.gatherCols(views, ins.NumModels()*ins.serverWords)
	if err != nil {
		return err
	}
	if err := ins.fillLinkRatesSampled(srcs, scratch); err != nil {
		return err
	}
	for x := range dst {
		dst[x] = 0
	}
	if len(views) == 0 {
		return nil
	}
	ins.fusedHitMassBlocked(block, cols, dst, scratch)
	return nil
}

// fusedHitMassBlocked is the realization-blocked multi-placement kernel.
// For user k a request (k,i) can hit only through two sources: the relay
// verdict (minRel[k,i] ≤ relay rate) reaching a cached up server outside
// the positive-rate covering set, or a positive-rate covering server m's
// direct verdict (minDir[k,i] ≤ rate_mk) with m caching i. Both verdict
// sets are rank prefixes of the instance's construction-time threshold
// index. The kernel takes a user's realizations in chunks of at most
// fadeChunk: it sorts the chunk's positive link rates, walks the direct
// rank row once, and snapshots the growing prefix mask at each rate — the
// prefix ends where searchGreater's cutoff would — and does the same for
// the chunk's relay rates over the relay rank row. Each view's hit mask
// for one realization is then, word by word, the OR over its direct links
// of (link prefix ∧ the link server's row) and (relay prefix ∧
// relay-source union). The probability sum sweeps that mask in ascending
// model order — the same additions, in the same order, as a dense
// per-realization sweep.
//
// Fading changes the relay-source set only through covering links of rate
// exactly 0, which relay like any up server outside the covering set (the
// two-pass fill's direct > 0 guard). So the union over up servers outside
// the covering set is built once per user and block, and the zero-rate
// links' rows join it per realization. The other per-user state fading
// does not change — covering list, rank rows, probability row — is also
// fetched once per user and shared by all block realizations.
func (ins *Instance) fusedHitMassBlocked(block int, cols [][]uint64, dst []float64, scratch *FadeScratch) {
	ins.fillServerRows(cols, scratch)
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	wi := bitset.Words(I)
	P := len(cols)
	rates, relay := scratch.rates, scratch.relay
	linkStart := scratch.linkStart
	srvRows, relayRows := scratch.srvRows, scratch.relayRows
	hits, events := scratch.hits, scratch.events
	dirSrv, zeroSrv := scratch.dirSrv, scratch.zeroSrv
	dirSnap, relSnap := scratch.dirSnap, scratch.relSnap
	for k := 0; k < K; k++ {
		if !ins.userHasMass[k] {
			// Zero-mass users (shard ghosts, parked slots) add exactly 0.0
			// per hit: skipping them is bitwise free and drops the ghost
			// band from the per-cell measurement cost.
			continue
		}
		covering := ins.topo.ServersCovering(k)
		if len(covering) == 0 {
			continue // no link, so no direct or relay verdict in any realization
		}
		lo := int(linkStart[k])
		relThr := ins.minRelRate[k*I : (k+1)*I]
		relOrder := ins.flipRelOrder[k*I : (k+1)*I]
		dirThr := ins.minDirRate[k*I : (k+1)*I]
		dirOrder := ins.flipDirOrder[k*I : (k+1)*I]
		probs := ins.work.ProbRow(k)
		for a := 0; a < P; a++ {
			union := relayRows[a*wi : (a+1)*wi]
			clear(union)
			rows := srvRows[a*M*wi : (a+1)*M*wi]
			c := 0
			for m := 0; m < M; m++ {
				if c < len(covering) && covering[c] == m {
					c++
					continue
				}
				for w, v := range rows[m*wi : (m+1)*wi] {
					union[w] |= v
				}
			}
		}
		for r0 := 0; r0 < block; r0 += fadeChunk {
			n := min(fadeChunk, block-r0)
			// Positive-rate covering links keep their direct verdict: chunk
			// realization c's j-th one gets snapshot slot c*M + j. Zero-rate
			// links relay instead.
			var nd, nz [fadeChunk]int
			ne := 0
			for j, m := range covering {
				at := (lo+j)*block + r0
				for c, rate := range rates[at : at+n] {
					if rate > 0 {
						slot := c*M + nd[c]
						dirSrv[slot] = int32(m)
						events[ne] = fadeEvent{rate, slot}
						ne++
						nd[c]++
					} else {
						zeroSrv[c*M+nz[c]] = int32(m)
						nz[c]++
					}
				}
			}
			scanRankPrefixes(events[:ne], dirThr, dirOrder, dirSnap, wi)
			userRelay := relay[k*block+r0 : k*block+r0+n]
			ne = 0
			for c, rate := range userRelay {
				if rate > 0 {
					events[ne] = fadeEvent{rate, c}
					ne++
				} else {
					clear(relSnap[c*wi : (c+1)*wi])
				}
			}
			scanRankPrefixes(events[:ne], relThr, relOrder, relSnap, wi)
			for c, relayRate := range userRelay {
				if relayRate <= 0 && nd[c] == 0 {
					continue // every indicator word is zero: nothing to add
				}
				prefix := dirSnap[c*M*wi : (c+1)*M*wi]
				relPrefix := relSnap[c*wi : (c+1)*wi]
				dirs, zeros := dirSrv[c*M:c*M+nd[c]], zeroSrv[c*M:c*M+nz[c]]
				out := dst[(r0+c)*P : (r0+c+1)*P]
				for a := range out {
					rows := srvRows[a*M*wi : (a+1)*M*wi]
					union := relayRows[a*wi : (a+1)*wi]
					for w := range hits {
						src := union[w]
						for _, m := range zeros {
							src |= rows[int(m)*wi+w]
						}
						h := relPrefix[w] & src
						for j, m := range dirs {
							h |= prefix[j*wi+w] & rows[int(m)*wi+w]
						}
						hits[w] = h
					}
					out[a] = sweepHits(hits, probs, out[a])
				}
			}
		}
	}
}

// scanRankPrefixes sorts events by ascending rate and walks one rank row
// (the order sorting threshold row thr) once. At each event the prefix
// stops at the first threshold above the rate — searchGreater's cutoff,
// reached by the same predicate — and the prefix's model mask lands in the
// event's wi-word slot of snaps. Equal rates share a cutoff, so their
// order in the sort does not matter.
func scanRankPrefixes(events []fadeEvent, thr []float64, order []uint16, snaps []uint64, wi int) {
	for x := 1; x < len(events); x++ {
		e, y := events[x], x
		for ; y > 0 && events[y-1].rate > e.rate; y-- {
			events[y] = events[y-1]
		}
		events[y] = e
	}
	p, prev := 0, []uint64(nil)
	for _, e := range events {
		snap := snaps[e.slot*wi : (e.slot+1)*wi]
		if prev == nil {
			clear(snap)
		} else {
			copy(snap, prev)
		}
		for ; p < len(order) && !(thr[order[p]] > e.rate); p++ {
			i := order[p]
			snap[i>>6] |= 1 << uint(i&63)
		}
		prev = snap
	}
}

// sweepHits adds the probabilities of the set models onto the running
// accumulator in ascending model order, clearing the mask as it goes. The
// additions land directly on the per-(realization, view) accumulator — not
// on a per-user subtotal folded in afterwards — preserving the exact float
// add order of the two-pass evaluator.
func sweepHits(hits []uint64, probs []float64, sum float64) float64 {
	for w, v := range hits {
		if v == 0 {
			continue
		}
		hits[w] = 0
		base := w << 6
		for ; v != 0; v &= v - 1 {
			sum += probs[base|mbits.TrailingZeros64(v)]
		}
	}
	return sum
}
