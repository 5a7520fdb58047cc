// Package scenario assembles a concrete instance of the paper's cache-hit
// maximization problem (§IV): a topology, a wireless configuration, a
// parameter-sharing model library, and a workload. It precomputes the
// quantities the placement algorithms and the Monte-Carlo evaluator consume:
// average downlink rates C̄_{m,k} (eq. 1), end-to-end latencies T_{m,k,i}
// (eqs. 4–5), and the service indicator I1(m,k,i) (eq. 3).
package scenario

import (
	"fmt"
	"math"
	mbits "math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"trimcaching/internal/bitset"
	"trimcaching/internal/geom"
	"trimcaching/internal/memprof"
	"trimcaching/internal/modellib"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// Instance is a problem instance. It is immutable except through
// UpdateUsers, which moves users and incrementally refreshes every derived
// quantity; callers that need a frozen snapshot use Rebuild.
type Instance struct {
	topo *topology.Topology
	lib  *modellib.Library
	work *workload.Workload
	wcfg wireless.Config

	avgRate   []float64   // avgRate[m*K+k]; 0 when m does not cover k
	bestRelay []float64   // bestRelay[k]: max covering-server avg rate, 0 if uncovered
	shadow    [][]float64 // optional per-link log-normal shadowing gains; nil = none
	// down[m] marks server m out of service (SetServersDown): its link rates
	// are pinned to 0, it leaves the relay candidate set, and the up-servers
	// mask (updFullRow) drops its bit so no reachability row — average or
	// faded — ever includes it. nil means every server is up.
	down []bool
	// capBits[m] is server m's storage budget in bits (SetServerCapacity);
	// -1 means unconstrained. capBlock packs the per-(model, server) storage
	// verdict in placement-column layout — capBlock[i*serverWords+w] bit m
	// set iff server m cannot store model i even alone (sizeBits[i] >
	// capBits[m]) — so every reachability fill AND-NOTs one word per row and
	// the fused kernel masks placement columns with the very same words.
	// Storage is orthogonal to radio: a capacity-blocked server keeps its
	// link rates and stays a relay last hop, it just cannot be the serving
	// server for the blocked models. nil means no server is constrained (the
	// common case pays one nil check per row).
	capBits   []int64
	capBlock  []uint64
	totalMass float64
	sizeBits  []float64 // sizeBits[i]: model size in bits, hoisted out of hot loops
	// userHasMass[k] caches whether user k's probability row carries any
	// request mass. Zero-mass users (shard-layer ghosts and parked slots)
	// contribute exactly nothing to any mass sum, so the fused measurement
	// kernels skip them outright — a bitwise no-op on the result.
	// Maintained by ReviseUsers; rows must not change behind its back.
	userHasMass []bool

	// Threshold form of the QoS verdicts (eqs. 3–5): server m can serve
	// (k,i) directly iff its rate ≥ minDirRate, and any server can relay
	// iff the user's best rate ≥ minRelRate (+Inf marks requests no rate
	// can satisfy). The thresholds depend only on the workload, library,
	// and backhaul — never on positions — so they survive user movement
	// and turn the per-realization reachability fill into one compare per
	// entry, with no divisions.
	minDirRate []float64 // minDirRate[k*I+i] = sizeBits / (deadline − infer)
	minRelRate []float64 // minRelRate[k*I+i] = sizeBits / (deadline − infer − sizeBits/backhaul)

	// Word-packed I1(m,k,i) under the average channel, in both orientations
	// the algorithms need: server masks answer "which servers can serve
	// request (k,i)" with one AND, user masks answer "which users does
	// placing (m,i) newly cover" with one AND-NOT sweep.
	serverWords int
	userWords   int
	reachSrv    []uint64 // [(k*I+i)*serverWords + w], bit m
	reachUsr    []uint64 // [(i*M+m)*userWords + w], bit k — model-major

	// Incremental-update state: gen counts UpdateUsers calls (warm-start
	// caches key their validity on it), the scratch below is reused across
	// calls so a delta update performs no steady-state allocation. Dirty
	// users are processed in parallel — their rate columns and reach rows
	// are disjoint — with inverted-index flips collected per worker and
	// applied serially, so results are bit-identical for any worker count.
	// revGen counts ReviseUsers calls that swapped workload rows, so caches
	// derived from probabilities (the evaluator's transposed table) can
	// detect missed revisions.
	gen           int
	revGen        int
	updDirty      []bool   // per-user dirty flag scratch
	updForce      []bool   // per-user forced-recompute flag (revised users)
	updUsers      []int    // dirty-user list scratch
	updFullRow    []uint64 // all-servers mask, serverWords
	updWorkers    []*updWorker
	updOps        []maskOp   // bucket-ordered op scratch
	updOff        []int      // per-bucket boundary scratch
	updCur        []int      // per-bucket write cursor scratch
	updTouched    []uint64   // per-(model, server-word) touched masks, I*serverWords
	updMaxWorkers int        // caller-imposed update worker bound; 0 = GOMAXPROCS
	rankBuf       []rankPair // per-user rank rebuild scratch (ReviseUsers)
	updErrs       []error    // per-worker error scratch
	updBounds     []int      // bucket-aligned split scratch (applyOpsBucketed)
	updRevised    []int      // Delta.Revised scratch
	updDelta      Delta      // the reused delta returned by ReviseUsers
	moveScratch   *topology.MoveScratch

	// coordinator marks a rank/workload-only instance (NewCoordinator):
	// position-dependent state — rates, relay rates, packed reachability —
	// is never materialized, and the update/measurement paths reject it.
	coordinator bool

	// Threshold rank index, built at construction: each user's models
	// ordered by ascending rate threshold. Delta updates use it as a flip
	// index — a rate change old→new flips exactly the verdicts whose
	// threshold lies between them, two binary searches instead of an
	// I-element rescan — and the fused measurement kernel enumerates
	// qualifying verdicts as rank prefixes of the same rows.
	flipDirOrder []int32   // flipDirOrder[k*I+j]: model at rank j of user k's direct thresholds
	flipDirVals  []float64 // flipDirVals[k*I+j] = minDirRate[k, flipDirOrder[k*I+j]]
	flipRelOrder []int32
	flipRelVals  []float64

	// rankProvider optionally supplies precomputed rank rows instead of the
	// O(I log I) per-user sort (see SetRankProvider).
	rankProvider RankProvider
}

// RankProvider fills user k's rank rows (dirOrder/dirVals and
// relOrder/relVals, each I long) from an external source and reports
// whether it did. The filled rows must be exactly what buildRankRow would
// produce from the user's current thresholds — the shard layer satisfies
// this by copying the global instance's rows for the bound user, whose
// thresholds are identical by construction. Returning false falls back to
// the sort.
type RankProvider func(k int, dirOrder []int32, dirVals []float64, relOrder []int32, relVals []float64) bool

// New validates the components and precomputes rates, latencies, and I1.
func New(topo *topology.Topology, lib *modellib.Library, work *workload.Workload, wcfg wireless.Config) (*Instance, error) {
	return newInstance(topo, lib, work, wcfg, nil, nil, false)
}

// NewRanked is New with a rank provider installed before the threshold
// rank index is built, so the construction-time index fills through copies
// instead of per-user sorts. The shard layer builds cell instances this
// way: a bound slot's thresholds equal its global user's, so its rank rows
// come straight from the global index. The provider stays installed for
// later rebinds (see SetRankProvider).
func NewRanked(topo *topology.Topology, lib *modellib.Library, work *workload.Workload, wcfg wireless.Config, provider RankProvider) (*Instance, error) {
	return newInstance(topo, lib, work, wcfg, nil, provider, false)
}

// NewShadowed builds an instance with per-link log-normal shadowing gains
// (shadow[m][k], linear power). Shadowing is slow fading: it affects both
// the average-channel rates used for placement and every fading
// realization. nil disables shadowing.
func NewShadowed(topo *topology.Topology, lib *modellib.Library, work *workload.Workload, wcfg wireless.Config, shadow [][]float64) (*Instance, error) {
	return newInstance(topo, lib, work, wcfg, shadow, nil, false)
}

// NewCoordinator builds a rank/workload-only instance: thresholds and the
// threshold rank index are computed, but the position-dependent state — the
// M×K rate table, relay rates, and both packed reachability orientations,
// together O(M·K + M·K·I/8) bytes — is never materialized. The shard layer's
// coordinator needs exactly the position-independent parts (topology
// positions, workload rows, library, wireless config, rank rows to seed the
// cells' RankProvider); at K=1M the skipped arrays are tens of gigabytes
// that no cell ever reads. Coordinator instances reject UpdateUsers,
// ReviseUsers, and Rebuild; cells carry their own full instances.
func NewCoordinator(topo *topology.Topology, lib *modellib.Library, work *workload.Workload, wcfg wireless.Config) (*Instance, error) {
	ins, err := newInstance(topo, lib, work, wcfg, nil, nil, true)
	return ins, err
}

// Coordinator reports whether this is a rank/workload-only instance built by
// NewCoordinator.
func (ins *Instance) Coordinator() bool { return ins.coordinator }

// newInstance is the one construction path behind New, NewRanked,
// NewShadowed, and NewCoordinator.
func newInstance(topo *topology.Topology, lib *modellib.Library, work *workload.Workload, wcfg wireless.Config, shadow [][]float64, provider RankProvider, coordinator bool) (*Instance, error) {
	if topo == nil || lib == nil || work == nil {
		return nil, fmt.Errorf("scenario: topology, library, and workload are required")
	}
	if err := wcfg.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if work.NumUsers() != topo.NumUsers() {
		return nil, fmt.Errorf("scenario: workload has %d users, topology has %d",
			work.NumUsers(), topo.NumUsers())
	}
	if work.NumModels() != lib.NumModels() {
		return nil, fmt.Errorf("scenario: workload has %d models, library has %d",
			work.NumModels(), lib.NumModels())
	}
	if math.Abs(wcfg.CoverageRadiusM-topo.CoverageRadius()) > 1e-9 {
		return nil, fmt.Errorf("scenario: wireless coverage radius %v differs from topology's %v",
			wcfg.CoverageRadiusM, topo.CoverageRadius())
	}

	ins := &Instance{topo: topo, lib: lib, work: work, wcfg: wcfg, shadow: shadow, coordinator: coordinator}
	M, K, I := topo.NumServers(), topo.NumUsers(), lib.NumModels()
	if shadow != nil {
		if len(shadow) != M {
			return nil, fmt.Errorf("scenario: shadow has %d rows, want %d", len(shadow), M)
		}
		for m := range shadow {
			if len(shadow[m]) != K {
				return nil, fmt.Errorf("scenario: shadow[%d] has %d cols, want %d", m, len(shadow[m]), K)
			}
		}
	}

	if !coordinator {
		ins.avgRate = make([]float64, M*K)
		for m := 0; m < M; m++ {
			load := topo.Load(m)
			for _, k := range topo.UsersOf(m) {
				rate, err := wcfg.FadedRateBps(topo.Distance(m, k), load, ins.shadowGain(m, k))
				if err != nil {
					return nil, fmt.Errorf("scenario: rate m=%d k=%d: %w", m, k, err)
				}
				ins.avgRate[m*K+k] = rate
			}
		}
		ins.bestRelay = make([]float64, K)
		for k := 0; k < K; k++ {
			for _, m := range topo.ServersCovering(k) {
				if ins.avgRate[m*K+k] > ins.bestRelay[k] {
					ins.bestRelay[k] = ins.avgRate[m*K+k]
				}
			}
		}
	}
	ins.sizeBits = make([]float64, I)
	for i := 0; i < I; i++ {
		ins.sizeBits[i] = 8 * float64(lib.ModelSize(i))
	}
	ins.minDirRate = make([]float64, K*I)
	ins.minRelRate = make([]float64, K*I)
	for k := 0; k < K; k++ {
		for i := 0; i < I; i++ {
			slack := work.DeadlineS(k, i) - work.InferS(k, i)
			ins.minDirRate[k*I+i] = rateThreshold(ins.sizeBits[i], slack)
			ins.minRelRate[k*I+i] = rateThreshold(ins.sizeBits[i], slack-ins.sizeBits[i]/wcfg.BackhaulBps)
		}
	}

	ins.serverWords = bitset.Words(M)
	ins.userWords = bitset.Words(K)
	if !coordinator {
		// The up-servers mask starts full and is maintained by
		// SetServersDown; every reachability fill (construction, faded
		// realizations, delta updates) broadcasts relay verdicts over it.
		ins.updFullRow = make([]uint64, ins.serverWords)
		bitset.Set(ins.updFullRow).SetAll(M)
		ins.reachSrv = make([]uint64, K*I*ins.serverWords)
		ins.fillReach(ins.avgRate, ins.bestRelay, ins.reachSrv)
		ins.reachUsr = make([]uint64, M*I*ins.userWords)
		for k := 0; k < K; k++ {
			for i := 0; i < I; i++ {
				ins.ServerMask(k, i).ForEach(func(m int) {
					bitset.Set(ins.reachUsr[(i*M+m)*ins.userWords:]).Set(k)
				})
			}
		}
	}
	ins.totalMass = work.TotalMass()
	ins.userHasMass = make([]bool, K)
	for k := 0; k < K; k++ {
		ins.userHasMass[k] = rowHasMass(work.ProbRow(k))
	}
	// The threshold rank index is position-independent, and every fused
	// measurement sweep now reads its verdict sets as rank prefixes,
	// so it is built here rather than lazily on the first delta update —
	// fresh instances, rebuild-mode engines, and newly sliced shard cells
	// all measure through it from their first realization. An installed
	// provider (NewRanked) fills rows by copying instead of sorting.
	ins.rankProvider = provider
	ins.ensureFlipIndex()
	return ins, nil
}

// rowHasMass reports whether any entry of a probability row is positive.
func rowHasMass(row []float64) bool {
	for _, p := range row {
		if p > 0 {
			return true
		}
	}
	return false
}

// fillReach computes the word-packed I1 indicator under the given per-link
// rates (rates[m*K+k], 0 for non-covering pairs) and per-user best relay
// rates, writing server masks into dst with layout [(k*I+i)*serverWords].
// Relay verdicts broadcast over the up-servers mask, so down servers never
// appear in any row.
func (ins *Instance) fillReach(rates, relay []float64, dst []uint64) {
	K, I := ins.NumUsers(), ins.NumModels()
	sw := ins.serverWords
	full := bitset.Set(ins.updFullRow)
	for k := 0; k < K; k++ {
		ins.fillReachRows(k, ins.topo.ServersCovering(k), rates, relay[k], full,
			dst[k*I*sw:(k+1)*I*sw])
	}
}

// rateThreshold returns the minimum rate that satisfies the QoS slack
// (seconds available for the over-the-air transfer): sizeBits/slack, or
// +Inf when no rate can (slack ≤ 0).
func rateThreshold(sizeBits, slack float64) float64 {
	if slack <= 0 {
		return math.Inf(1)
	}
	return sizeBits / slack
}

// fillReachRows recomputes user k's I server masks into rows (I*serverWords
// words) under the given per-link rates and relay rate. This is the
// reachability engine's innermost fill, shared by full builds (fillReach),
// fading realizations (FadedReach), and delta updates (UpdateUsers), so all
// three stay bit-identical by construction.
//
// The relay-path latency (eq. 5) does not depend on the serving server m,
// so its verdict is computed once per (k,i) and broadcast across the whole
// mask; only the (sparse) covering servers are then patched with their
// direct-path verdict (eq. 4). Both verdicts use the precomputed threshold
// form — rate ≥ sizeBits/slack instead of sizeBits/rate + … ≤ deadline —
// which is algebraically the same test reduced to one compare per entry,
// and which UpdateUsers' flip index shares so delta updates agree exactly.
func (ins *Instance) fillReachRows(k int, covering []int, rates []float64, relayRate float64, full bitset.Set, rows []uint64) {
	K, I := ins.NumUsers(), ins.NumModels()
	sw := ins.serverWords
	minDir := ins.minDirRate[k*I : (k+1)*I]
	minRel := ins.minRelRate[k*I : (k+1)*I]
	capBlock := ins.capBlock
	if sw == 1 {
		// Single-word masks (M ≤ 64): each row is one uint64.
		fullWord := full[0]
		for i := 0; i < I; i++ {
			var w uint64
			if relayRate > 0 && relayRate >= minRel[i] {
				w = fullWord
			}
			for _, m := range covering {
				if direct := rates[m*K+k]; direct > 0 {
					if direct >= minDir[i] {
						w |= 1 << uint(m)
					} else {
						w &^= 1 << uint(m)
					}
				}
			}
			if capBlock != nil {
				w &^= capBlock[i]
			}
			rows[i] = w
		}
		return
	}
	for i := 0; i < I; i++ {
		row := bitset.Set(rows[i*sw : (i+1)*sw])
		if relayRate > 0 && relayRate >= minRel[i] {
			row.CopyFrom(full)
		} else {
			row.Zero()
		}
		for _, m := range covering {
			if direct := rates[m*K+k]; direct > 0 {
				if direct >= minDir[i] {
					row.Set(m)
				} else {
					row.Clear(m)
				}
			}
		}
		if capBlock != nil {
			for wd, word := range capBlock[i*sw : (i+1)*sw] {
				row[wd] &^= word
			}
		}
	}
}

// latency computes T_{m,k,i} in seconds under the given per-link rates.
// rates[m*K+k] must be 0 for non-covering pairs; relayRate[k] is the best
// covering-server rate of user k. Unreachable pairs yield +Inf.
func (ins *Instance) latency(m, k, i int, rates []float64, relayRate []float64) float64 {
	if ins.serverDown(m) {
		return math.Inf(1) // the serving server is out of service
	}
	if ins.capBlocked(m, i) {
		return math.Inf(1) // the serving server cannot store the model
	}
	sizeBits := ins.sizeBits[i]
	infer := ins.work.InferS(k, i)
	if direct := rates[m*ins.NumUsers()+k]; direct > 0 {
		return sizeBits/direct + infer // eq. (4)
	}
	// eq. (5): transfer over the backhaul to the user's best covering
	// server, then over the air. The backhaul rate is the same constant for
	// every server pair, so minimizing over m' means maximizing the
	// downlink rate.
	if relayRate[k] <= 0 {
		return math.Inf(1) // user covered by no server
	}
	return sizeBits/ins.wcfg.BackhaulBps + sizeBits/relayRate[k] + infer
}

// shadowGain returns the slow-fading gain of link (m,k), 1 when disabled.
func (ins *Instance) shadowGain(m, k int) float64 {
	if ins.shadow == nil {
		return 1
	}
	return ins.shadow[m][k]
}

// Generation counts the UpdateUsers calls applied to this instance. Caches
// derived from the reachability masks (e.g. the placement evaluator's
// marginal-gain memo) key their validity on it.
func (ins *Instance) Generation() int { return ins.gen }

// RevisionGeneration counts the ReviseUsers calls that swapped workload
// rows. Caches derived from request probabilities (the evaluator's
// transposed probability table) key their validity on it; plain UpdateUsers
// calls never advance it.
func (ins *Instance) RevisionGeneration() int { return ins.revGen }

// Shadowed reports whether the instance carries per-link shadowing gains.
// The shard layer rejects shadowed instances: shadowing is keyed by
// (server, user) index pairs, which slot rebinding would scramble.
func (ins *Instance) Shadowed() bool { return ins.shadow != nil }

// Delta describes what one UpdateUsers call changed, in the form the
// warm-start machinery consumes. The delta returned by
// UpdateUsers/ReviseUsers — struct and slices — is owned by the instance
// and reused: it is valid until the next update call, and callers that
// hold deltas across updates must copy what they keep.
type Delta struct {
	// Gen is the instance generation this delta produced.
	Gen int
	// Users lists, ascending, the users whose rate and reachability rows
	// were recomputed: the moved users plus every user of a server whose
	// association load changed.
	Users []int
	// Pairs packs the (server, model) pairs — bit m*I+i — whose user
	// reachability mask changed. Placement warm starts recompute exactly
	// these marginal gains and reuse the rest. For revised users (see
	// ReviseUsers) every pair their reach rows touch is included, changed
	// or not: the mask may be unchanged while the probability under it is
	// not.
	Pairs bitset.Set
	// Revised lists the users whose workload rows were swapped before this
	// delta (ReviseUsers), in caller order. Probability-derived caches
	// refresh exactly these columns.
	Revised []int
	// RevGen is the instance's revision generation after this delta (the
	// ReviseUsers call count; see RevisionGeneration).
	RevGen int
}

// Rebuild returns a fresh instance with the same servers, library,
// workload, wireless configuration, and per-link shadowing, but users at
// the given positions. It is the one rebuild path shared by every dynamic
// layer — and the reference UpdateUsers is pinned against.
func (ins *Instance) Rebuild(users []geom.Point) (*Instance, error) {
	topo, err := ins.topo.WithUserPositions(users)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	fresh, err := NewShadowed(topo, ins.lib, ins.work, ins.wcfg, ins.shadow)
	if err != nil {
		return nil, err
	}
	// Outages survive rebuilds: the rebuild-mode engine pin (Incremental ==
	// Rebuild) holds through SetServersDown only if the fresh instance
	// carries the same down set.
	if downList := ins.DownServers(); len(downList) > 0 {
		if _, err := fresh.SetServersDown(downList, true); err != nil {
			return nil, err
		}
	}
	// Capacity degradations survive rebuilds the same way.
	for m, bits := range ins.capBits {
		if bits >= 0 {
			if _, err := fresh.SetServerCapacity(m, bits); err != nil {
				return nil, err
			}
		}
	}
	return fresh, nil
}

// UpdateUsers moves user moved[j] to pos[j] and incrementally refreshes the
// association sets, average rates, relay rates, and both packed
// reachability orientations, bit-identical to Rebuild on the full updated
// position vector but touching only the users the move affects: the moved
// users plus the users of servers whose load changed. Per-link shadowing,
// when present, stays attached to the (server, user) index pair. The
// returned delta reports the changed reachability pairs for warm-start
// consumers.
func (ins *Instance) UpdateUsers(moved []int, pos []geom.Point) (*Delta, error) {
	return ins.ReviseUsers(nil, nil, moved, pos)
}

// ReviseUsers is UpdateUsers plus workload-row revision: revised lists
// users whose rows in the instance's workload were swapped (via
// workload.SetUserRows) since the last update. For each revised user the
// QoS rate thresholds and their rank rows are recomputed from the new
// deadline and inference rows before the movement pass, the reachability
// rows are recomputed unconditionally (a threshold change invalidates the
// rate-crossing flip search), and every pair the user's reach rows touch is
// reported in Delta.Pairs — the masks may be unchanged while the request
// mass under them is not. massOnly lists users whose probability row alone
// was swapped (workload.SetUserProbRow) while their deadline and inference
// rows stayed bound: thresholds, rank rows, and reachability need no work
// beyond any movement the user also has, so only the gain invalidation and
// probability-cache refresh apply — the cheap path for the shard layer's
// ownership flips and parkings. TotalMass is recomputed in construction
// order whenever any row changed, so a revised instance stays bit-identical
// to a fresh build over the same workload. Revised users need not appear in
// moved; movement semantics for moved users are exactly UpdateUsers'. This
// is the shard layer's handoff seam: cross-cell movement becomes paired
// calls — park and zero the slot in the cell the user left, bind and move
// it in the cell it entered.
func (ins *Instance) ReviseUsers(revised, massOnly []int, moved []int, pos []geom.Point) (*Delta, error) {
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	if ins.coordinator {
		return nil, fmt.Errorf("scenario: coordinator instances carry no rate or reachability state to update")
	}
	for _, k := range revised {
		if k < 0 || k >= K {
			return nil, fmt.Errorf("scenario: revised user %d out of range [0,%d)", k, K)
		}
	}
	for _, k := range massOnly {
		if k < 0 || k >= K {
			return nil, fmt.Errorf("scenario: mass-revised user %d out of range [0,%d)", k, K)
		}
	}
	if ins.moveScratch == nil {
		ins.moveScratch = topology.NewMoveScratch(K, M)
	}
	// The topology is mutated in place — the instance privately owns it —
	// with each moved user's pre-move coverage row parked in the move
	// scratch for the update pass below. No snapshot copies: this is the
	// checkpoint loop's dominant allocation site at scale.
	loadChanged, err := ins.topo.MoveUsersInPlace(moved, pos, ins.moveScratch)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	ins.ensureUpdScratch()
	ins.ensureFlipIndex()
	dirty := ins.updDirty
	for _, k := range revised {
		ins.reviseThresholds(k)
		dirty[k] = true
		ins.updForce[k] = true
	}
	for _, k := range moved {
		dirty[k] = true
	}
	for _, m := range loadChanged {
		// Users that left m's coverage are movers and already dirty; the
		// remaining (old ∩ new) and entering users are all in the new list.
		for _, k := range ins.topo.UsersOf(m) {
			dirty[k] = true
		}
	}
	dirtyUsers := ins.updUsers[:0]
	for k := 0; k < K; k++ {
		if dirty[k] {
			dirty[k] = false // reset scratch for the next call
			dirtyUsers = append(dirtyUsers, k)
		}
	}
	ins.updUsers = dirtyUsers

	// Phase 1, parallel over dirty users: rate columns, relay rates, and
	// reach rows are disjoint per user, so workers write them directly;
	// inverted-index updates land in per-worker op buffers. Phase 2 applies
	// the ops — written bits are unique per (user, server, model), so the
	// outcome is bit-identical for any worker count. A single-worker run
	// stays on the calling goroutine: no spawns, no allocation.
	workers := len(dirtyUsers) / minUsersPerWorker
	if gmp := runtime.GOMAXPROCS(0); workers > gmp {
		workers = gmp
	}
	if ins.updMaxWorkers > 0 && workers > ins.updMaxWorkers {
		workers = ins.updMaxWorkers
	}
	if workers < 1 {
		workers = 1
	}
	for len(ins.updWorkers) < workers {
		ins.updWorkers = append(ins.updWorkers, newUpdWorker(M, I, ins.serverWords))
	}
	if cap(ins.updErrs) < workers {
		ins.updErrs = make([]error, workers)
	}
	errs := ins.updErrs[:workers]
	for w := range errs {
		errs[w] = nil
	}
	if workers == 1 {
		ins.updWorkers[0].ops = ins.updWorkers[0].ops[:0]
		ins.updateUserRange(dirtyUsers, errs, 0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*len(dirtyUsers)/workers, (w+1)*len(dirtyUsers)/workers
			ins.updWorkers[w].ops = ins.updWorkers[w].ops[:0]
			wg.Add(1)
			// The share is passed by value: capturing dirtyUsers itself would
			// move the slice variable to the heap on every call, including
			// single-worker calls that never reach this branch.
			go func(w int, share []int) {
				defer wg.Done()
				ins.updateUserRange(share, errs, w)
			}(w, dirtyUsers[lo:hi])
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Written bits are unique per (user, server, model), so the final
	// inverted-index state is the same for any application order. Mass
	// updates (a checkpoint's walk dirties most users) therefore go through
	// the bucketed path: counting-sorting the ops by model block confines
	// each batch's writes to a cache-resident run of reachUsr rows (the
	// index is model-major), where the direct loop pays a full cache miss
	// per op on a gigabyte-scale index. Small deltas keep the direct loop —
	// bucketing has a fixed two-pass cost that only pays for itself in
	// bulk.
	if ins.updDelta.Pairs == nil {
		ins.updDelta.Pairs = bitset.New(M * I)
	} else {
		ins.updDelta.Pairs.Zero()
	}
	pairs := ins.updDelta.Pairs
	total := 0
	for _, uw := range ins.updWorkers[:workers] {
		total += len(uw.ops)
	}
	if shift := ins.flipBucketShift(); shift >= 0 && total >= flipBucketMinOps {
		ins.applyOpsBucketed(pairs, workers, total, shift)
	} else {
		touched := ins.touchedScratch()
		for _, uw := range ins.updWorkers[:workers] {
			for _, op := range uw.ops {
				ins.applyMaskOp(op, touched)
			}
		}
		ins.foldTouchedPairs(pairs, touched)
	}
	var revCopy []int
	if len(revised)+len(massOnly) > 0 {
		// A revised user's request mass changed under masks that may not
		// have: every pair its reach rows touch carries a stale gain. A
		// user regaining mass was untracked (its inverted-index bits may be
		// stale), so its UserMask bits are reconciled from its reach rows
		// first — clears of stale bits need no pair marking, since a
		// zero-mass bit never contributed to any gain.
		markRows := func(k int) {
			sw := ins.serverWords
			hasMass := rowHasMass(ins.work.ProbRow(k))
			if hasMass && !ins.userHasMass[k] {
				ins.reconcileUserBits(k)
			}
			rows := ins.reachSrv[k*I*sw : (k+1)*I*sw]
			for i := 0; i < I; i++ {
				for wd, word := range rows[i*sw : (i+1)*sw] {
					for ; word != 0; word &= word - 1 {
						m := wd<<6 | mbits.TrailingZeros64(word)
						pairs.Set(m*I + i)
					}
				}
			}
			ins.userHasMass[k] = hasMass
		}
		for _, k := range revised {
			ins.updForce[k] = false
			markRows(k)
		}
		for _, k := range massOnly {
			markRows(k)
		}
		// Full resum in construction order: a revised instance's TotalMass
		// stays bit-identical to a fresh build over the same workload.
		ins.totalMass = ins.work.TotalMass()
		ins.revGen++
		ins.updRevised = append(append(ins.updRevised[:0], revised...), massOnly...)
		revCopy = ins.updRevised
	}
	ins.gen++
	// The delta and every slice it carries are owned by the instance and
	// valid until the next UpdateUsers/ReviseUsers call; steady-state
	// callers (the dynamics engines) consume it before their next refresh,
	// so the loop allocates nothing. Holding a delta across updates
	// requires a copy.
	ins.updDelta.Gen = ins.gen
	ins.updDelta.Users = dirtyUsers
	ins.updDelta.Revised = revCopy
	ins.updDelta.RevGen = ins.revGen
	return &ins.updDelta, nil
}

// updateUserRange refreshes one worker's share of the dirty users,
// recording the first error in errs[w]. A user moved by the current call
// diffs against its parked pre-move coverage row; any other dirty user's
// coverage is unchanged, so the live row is the old row.
func (ins *Instance) updateUserRange(dirtyUsers []int, errs []error, w int) {
	uw := ins.updWorkers[w]
	for _, k := range dirtyUsers {
		oldCovering, movedNow := ins.moveScratch.OldCovering(k)
		if !movedNow {
			oldCovering = ins.topo.ServersCovering(k)
		}
		if err := ins.updateUser(k, oldCovering, uw); err != nil {
			errs[w] = err
			return
		}
	}
}

// reconcileUserBits rewrites user k's inverted-index bits from its reach
// rows: clear everywhere, then set the row bits. Untracked (zero-mass)
// users accumulate stale bits; this runs when one regains mass.
func (ins *Instance) reconcileUserBits(k int) {
	M, I := ins.NumServers(), ins.NumModels()
	uw := ins.userWords
	for p := 0; p < M*I; p++ {
		bitset.Set(ins.reachUsr[p*uw : (p+1)*uw]).Clear(k)
	}
	sw := ins.serverWords
	rows := ins.reachSrv[k*I*sw : (k+1)*I*sw]
	for i := 0; i < I; i++ {
		for wd, word := range rows[i*sw : (i+1)*sw] {
			for ; word != 0; word &= word - 1 {
				m := wd<<6 | mbits.TrailingZeros64(word)
				bitset.Set(ins.reachUsr[(i*M+m)*uw : (i*M+m+1)*uw]).Set(k)
			}
		}
	}
}

// reviseThresholds recomputes user k's QoS rate thresholds and, when the
// flip index exists, its rank rows, from the workload's current deadline
// and inference rows — the per-user slice of the construction-time loop,
// re-run after a row swap.
func (ins *Instance) reviseThresholds(k int) {
	I := ins.NumModels()
	for i := 0; i < I; i++ {
		slack := ins.work.DeadlineS(k, i) - ins.work.InferS(k, i)
		ins.minDirRate[k*I+i] = rateThreshold(ins.sizeBits[i], slack)
		ins.minRelRate[k*I+i] = rateThreshold(ins.sizeBits[i], slack-ins.sizeBits[i]/ins.wcfg.BackhaulBps)
	}
	if ins.flipDirOrder == nil {
		return
	}
	if ins.rankBuf == nil {
		ins.rankBuf = make([]rankPair, I)
	}
	ins.fillRankRows(k)
}

// ensureUpdScratch allocates the per-user dirty/force flag scratch shared
// by ReviseUsers and SetServersDown.
func (ins *Instance) ensureUpdScratch() {
	if ins.updDirty == nil {
		ins.updDirty = make([]bool, ins.NumUsers())
		ins.updForce = make([]bool, ins.NumUsers())
	}
}

// minUsersPerWorker keeps the parallel update phase from spawning workers
// for trivially small dirty sets.
const minUsersPerWorker = 32

// maskOp is one deferred inverted-index update: set or clear user k's bit
// in the user masks of pairs (m, i) for every server m in one word of a
// server-bit mask. One op carries a whole word of the per-bit flips the
// update pass used to record — a relay crossing, which flips a user's
// verdict on every non-covering server at once, is one op per server word
// instead of one per server, and a coverage-changed recompute emits at
// most two ops per (model, server word) from its row diff. Head layout:
// model i in bits 40..63, user k in bits 8..39, server word index in bits
// 1..7, the set/clear verdict in bit 0 (so I < 2^24, K < 2^32, and
// serverWords < 2^7 — far beyond any instance the generators produce).
type maskOp struct {
	head uint64
	mask uint64 // server bits within word word(), bit position m&63
}

func packMaskOp(i, k, wd int, set bool, mask uint64) maskOp {
	head := uint64(i)<<40 | uint64(uint32(k))<<8 | uint64(wd)<<1
	if set {
		head |= 1
	}
	return maskOp{head: head, mask: mask}
}

func (op maskOp) model() int  { return int(op.head >> 40) }
func (op maskOp) user() int   { return int(uint32(op.head >> 8)) }
func (op maskOp) word() int   { return int(op.head >> 1 & 0x7f) }
func (op maskOp) isSet() bool { return op.head&1 != 0 }

// updWorker is one parallel update worker's scratch.
type updWorker struct {
	oldRate  []float64 // old covering rates, indexed by server
	dirRates []float64 // gathered covering rates
	dirBits  []uint64  // matching single-word bit masks
	covMask  []uint64  // covering-servers mask, serverWords
	rows     []uint64  // recompute scratch (multi-word masks), I*serverWords
	ops      []maskOp
}

func newUpdWorker(M, I, serverWords int) *updWorker {
	return &updWorker{
		oldRate:  make([]float64, M),
		dirRates: make([]float64, 0, M),
		dirBits:  make([]uint64, 0, M),
		covMask:  make([]uint64, serverWords),
		rows:     make([]uint64, I*serverWords),
	}
}

// emit records a deferred inverted-index update for one server word.
func (w *updWorker) emit(i, k, wd int, set bool, mask uint64) {
	w.ops = append(w.ops, packMaskOp(i, k, wd, set, mask))
}

// flipBucketWindowWords sizes one op bucket's reachUsr window, in words:
// 1<<18 words = 2 MiB, small enough to sit in L2/L3 while a bucket's
// writes land. Variable (not const) so tests can shrink it to force
// multi-bucket runs on toy instances.
var flipBucketWindowWords = 1 << 18

// flipBucketMinOps gates the bucketed path: below this many ops the two
// extra passes over the op list cost more than the cache misses they
// save. Variable so tests can drive the bucketed path on small deltas.
var flipBucketMinOps = 1 << 12

// flipBucketShift returns s such that buckets of 1<<s consecutive models
// (reachUsr is model-major, so one model's M rows are contiguous) cover a
// window of at most flipBucketWindowWords, or -1 when the whole index
// fits in one bucket and bucketing cannot help.
func (ins *Instance) flipBucketShift() int {
	blockWords := ins.NumServers() * ins.userWords
	models := flipBucketWindowWords / blockWords
	shift := 0
	for models > 1 {
		models >>= 1
		shift++
	}
	if (ins.NumModels()-1)>>shift == 0 {
		return -1
	}
	return shift
}

// applyMaskOp flips user op.user()'s bit in every pair the op's
// server-mask word covers. Changed pairs are not marked per bit: the op's
// whole mask is OR-ed into the touched scratch (one word per (model,
// server word)), which foldTouchedPairs expands once after all ops land.
// Parallel appliers own disjoint model ranges, so they share the scratch
// without synchronization.
func (ins *Instance) applyMaskOp(op maskOp, touched []uint64) {
	uwords := ins.userWords
	M := ins.NumServers()
	i, k, wd := op.model(), op.user(), op.word()
	kw, kb := k>>6, uint(k&63)
	touched[i*ins.serverWords+wd] |= op.mask
	rowBase := (i*M+wd<<6)*uwords + kw
	if op.isSet() {
		for mask := op.mask; mask != 0; mask &= mask - 1 {
			ins.reachUsr[rowBase+mbits.TrailingZeros64(mask)*uwords] |= 1 << kb
		}
	} else {
		for mask := op.mask; mask != 0; mask &= mask - 1 {
			ins.reachUsr[rowBase+mbits.TrailingZeros64(mask)*uwords] &^= 1 << kb
		}
	}
}

// touchedScratch returns the zeroed per-(model, server-word) touched
// masks for one phase-2 application.
func (ins *Instance) touchedScratch() []uint64 {
	n := ins.NumModels() * ins.serverWords
	if cap(ins.updTouched) < n {
		ins.updTouched = make([]uint64, n)
	}
	touched := ins.updTouched[:n]
	clear(touched)
	return touched
}

// foldTouchedPairs marks pairs.Set(m*I+i) for every touched (m, i).
func (ins *Instance) foldTouchedPairs(pairs bitset.Set, touched []uint64) {
	I, sw := ins.NumModels(), ins.serverWords
	for i := 0; i < I; i++ {
		for wd := 0; wd < sw; wd++ {
			for word := touched[i*sw+wd]; word != 0; word &= word - 1 {
				m := wd<<6 | mbits.TrailingZeros64(word)
				pairs.Set(m*I + i)
			}
		}
	}
}

// applyOpsBucketed is the bulk phase-2 path: scatter the workers' op
// buffers into model-block buckets (counting sort on model>>shift), then
// apply bucket by bucket, so each batch's reachUsr writes stay inside one
// cache-resident block of model rows. Written bits are unique per update,
// so the reordered application is bit-identical to the direct loop. With
// more than one worker the buckets are split into contiguous ranges
// applied in parallel — disjoint model ranges touch disjoint reachUsr
// rows and disjoint touched words, so the appliers share both without
// synchronization.
func (ins *Instance) applyOpsBucketed(pairs bitset.Set, workers, total, shift int) {
	I := ins.NumModels()
	buckets := (I-1)>>shift + 1
	if cap(ins.updOps) < total {
		ins.updOps = make([]maskOp, total)
	}
	ops := ins.updOps[:total]
	if cap(ins.updOff) < buckets+1 {
		ins.updOff = make([]int, buckets+1)
		ins.updCur = make([]int, buckets)
	}
	off := ins.updOff[:buckets+1]
	cur := ins.updCur[:buckets]
	clear(off)
	for _, uw := range ins.updWorkers[:workers] {
		for _, op := range uw.ops {
			off[op.model()>>shift+1]++
		}
	}
	for b := 0; b < buckets; b++ {
		off[b+1] += off[b]
		cur[b] = off[b]
	}
	for _, uw := range ins.updWorkers[:workers] {
		for _, op := range uw.ops {
			b := op.model() >> shift
			ops[cur[b]] = op
			cur[b]++
		}
	}
	touched := ins.touchedScratch()
	apply := func(ops []maskOp) {
		for _, op := range ops {
			ins.applyMaskOp(op, touched)
		}
	}
	if workers <= 1 {
		apply(ops)
		ins.foldTouchedPairs(pairs, touched)
		return
	}
	// Bucket-aligned split: applier w starts at the first bucket whose ops
	// begin at or after w's even share of the total.
	if cap(ins.updBounds) < workers+1 {
		ins.updBounds = make([]int, workers+1)
	}
	bounds := ins.updBounds[:workers+1]
	bounds[0] = 0
	bounds[workers] = total
	for w := 1; w < workers; w++ {
		b := sort.SearchInts(off, w*total/workers)
		bounds[w] = off[min(b, buckets)]
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if bounds[w] == bounds[w+1] {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			apply(ops[bounds[w]:bounds[w+1]])
		}(w)
	}
	wg.Wait()
	ins.foldTouchedPairs(pairs, touched)
}

// updateUser refreshes one dirty user: rates and relay rate first (with
// the old covering rates captured for the flip search), then the reach
// rows — threshold flips when the coverage set is unchanged, a fused
// recompute otherwise. Revised users (ins.updForce, read-only during the
// parallel phase) always take the fused recompute: their thresholds
// changed, so the rate-crossing flip search no longer describes which
// verdicts flipped. Clean users keep bit-identical rates: their positions,
// their servers' loads, and their shadowing gains are all unchanged.
//
// Zero-mass users (userHasMass false before this update) are untracked:
// their reach rows are kept exact, but no inverted-index flips are emitted
// — their UserMask bits carry no request mass, so every consumer is
// bitwise unaffected by their staleness, and the shard layer's ghost bands
// stop paying per-bit bookkeeping. ReviseUsers reconciles the bits when a
// user regains mass.
func (ins *Instance) updateUser(k int, oldCovering []int, w *updWorker) error {
	K := ins.NumUsers()
	newCovering := ins.topo.ServersCovering(k)
	oldRelay := ins.bestRelay[k]
	for _, m := range oldCovering {
		w.oldRate[m] = ins.avgRate[m*K+k]
		ins.avgRate[m*K+k] = 0
	}
	best := 0.0
	for _, m := range newCovering {
		if ins.serverDown(m) {
			continue // rate stays 0: the oldCovering sweep above zeroed it
		}
		rate, err := ins.wcfg.FadedRateBps(ins.topo.Distance(m, k), ins.topo.Load(m), ins.shadowGain(m, k))
		if err != nil {
			return fmt.Errorf("scenario: rate m=%d k=%d: %w", m, k, err)
		}
		ins.avgRate[m*K+k] = rate
		if rate > best {
			best = rate
		}
	}
	ins.bestRelay[k] = best

	track := ins.userHasMass[k]
	if !ins.updForce[k] && slices.Equal(oldCovering, newCovering) {
		ins.flipUserRows(k, newCovering, oldRelay, best, w, track)
	} else {
		ins.recomputeUserRows(k, newCovering, w, track)
	}
	return nil
}

// ensureFlipIndex builds, once per instance, each user's models ordered by
// ascending direct and relay rate thresholds. The thresholds are
// position-independent, so the index never invalidates; construction runs
// it eagerly (the fused measurement kernel consumes the rank prefixes from
// the first realization), so later calls are no-ops. An installed rank
// provider short-circuits the per-user sorts.
func (ins *Instance) ensureFlipIndex() {
	if ins.flipDirOrder != nil {
		return
	}
	K, I := ins.NumUsers(), ins.NumModels()
	ins.flipDirOrder = make([]int32, K*I)
	ins.flipDirVals = make([]float64, K*I)
	ins.flipRelOrder = make([]int32, K*I)
	ins.flipRelVals = make([]float64, K*I)
	if ins.rankProvider != nil {
		if ins.rankBuf == nil {
			ins.rankBuf = make([]rankPair, I)
		}
		for k := 0; k < K; k++ {
			ins.fillRankRows(k)
		}
		return
	}
	buildRanks(ins.flipDirOrder, ins.flipDirVals, ins.minDirRate, K, I)
	buildRanks(ins.flipRelOrder, ins.flipRelVals, ins.minRelRate, K, I)
}

// fillRankRows fills user k's rank rows through the provider when it can,
// sorting otherwise. The flip index and rankBuf must exist.
func (ins *Instance) fillRankRows(k int) {
	I := ins.NumModels()
	do := ins.flipDirOrder[k*I : (k+1)*I]
	dv := ins.flipDirVals[k*I : (k+1)*I]
	ro := ins.flipRelOrder[k*I : (k+1)*I]
	rv := ins.flipRelVals[k*I : (k+1)*I]
	if ins.rankProvider != nil && ins.rankProvider(k, do, dv, ro, rv) {
		return
	}
	buildRankRow(do, dv, ins.minDirRate[k*I:(k+1)*I], ins.rankBuf)
	buildRankRow(ro, rv, ins.minRelRate[k*I:(k+1)*I], ins.rankBuf)
}

// SetUpdateWorkers bounds the parallel user-update phase of
// UpdateUsers/ReviseUsers (and the bucketed flip application that follows
// it); 0 restores the default GOMAXPROCS bound. Results are bit-identical
// for any bound — the engines thread their Workers pin through so a
// single-goroutine configuration really runs single-goroutine here too.
func (ins *Instance) SetUpdateWorkers(n int) { ins.updMaxWorkers = n }

// SetRankProvider installs an external source of precomputed rank rows,
// consulted whenever a user's rank rows would otherwise be rebuilt by
// sorting (index construction and slot rebinds). The shard layer points
// cells at the global instance's rank index: a bound slot's thresholds
// equal the global user's, so its rank rows are a copy, not a sort.
func (ins *Instance) SetRankProvider(p RankProvider) { ins.rankProvider = p }

// EnsureRankIndex forces construction of the per-user threshold rank
// index. Construction now builds it eagerly, so this is a no-op kept for
// callers that predate the eager build.
func (ins *Instance) EnsureRankIndex() { ins.ensureFlipIndex() }

// UserRankRows returns user k's rank rows — models by ascending direct and
// relay rate threshold with the matching sorted values. The index exists
// from construction. The slices alias internal state; treat as read-only.
func (ins *Instance) UserRankRows(k int) (dirOrder []int32, dirVals []float64, relOrder []int32, relVals []float64) {
	I := ins.NumModels()
	return ins.flipDirOrder[k*I : (k+1)*I], ins.flipDirVals[k*I : (k+1)*I],
		ins.flipRelOrder[k*I : (k+1)*I], ins.flipRelVals[k*I : (k+1)*I]
}

// rankPair is one (threshold, model) entry of the rank index build.
type rankPair struct {
	v float64
	i int32
}

// buildRanks fills, per user, the model permutation sorted by ascending
// threshold and the matching sorted threshold values. Ties order
// arbitrarily: every consumer (flip ranges, rank prefix cutoffs) selects
// by value boundary, so equal-threshold models are always taken as a
// block. Sorting (value, index) pairs through slices.SortFunc keeps the
// comparator inlined — sort.Slice's reflection-based swapper tripled the
// one-time index cost at LoRA scale.
func buildRanks(order []int32, vals, thresholds []float64, K, I int) {
	pairs := make([]rankPair, I)
	for k := 0; k < K; k++ {
		buildRankRow(order[k*I:(k+1)*I], vals[k*I:(k+1)*I], thresholds[k*I:(k+1)*I], pairs)
	}
}

// buildRankRow fills one user's rank row from its threshold row; pairs is
// an I-element scratch.
func buildRankRow(order []int32, vals, thresholds []float64, pairs []rankPair) {
	for j := range pairs {
		pairs[j] = rankPair{v: thresholds[j], i: int32(j)}
	}
	slices.SortFunc(pairs, func(a, b rankPair) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	for j, p := range pairs {
		order[j] = p.i
		vals[j] = p.v
	}
}

// flipRange returns the rank interval [lo, hi) of thresholds crossed by a
// rate change old→new: thresholds t with min(old,new) < t ≤ max(old,new).
// Exactly these verdicts (rate ≥ t) flip; rising rates set them, falling
// rates clear them.
func flipRange(vals []float64, oldRate, newRate float64) (lo, hi int, set bool) {
	a, b := oldRate, newRate
	set = newRate > oldRate
	if !set {
		a, b = b, a
	}
	lo = sort.Search(len(vals), func(j int) bool { return vals[j] > a })
	hi = lo + sort.Search(len(vals)-lo, func(j int) bool { return vals[lo+j] > b })
	return lo, hi, set
}

// flipUserRows applies a same-coverage rate change to user k's reach rows:
// binary-search the user's threshold ranks for the verdicts the relay and
// per-server rate changes crossed, and toggle exactly those bits in both
// packed orientations — O(M·log I + flips) instead of an O(I) refill.
// track false (zero-mass user) updates the rows but records no inverted-
// index ops.
func (ins *Instance) flipUserRows(k int, covering []int, oldRelay, newRelay float64, w *updWorker, track bool) {
	K, I := ins.NumUsers(), ins.NumModels()
	sw := ins.serverWords
	rows := ins.reachSrv[k*I*sw : (k+1)*I*sw]

	// Relay flips toggle every non-covering server's bit (covering bits are
	// always governed by their direct verdict, since covering rates are
	// positive).
	if oldRelay != newRelay {
		cov := bitset.Set(w.covMask)
		cov.Zero()
		for _, m := range covering {
			cov.Set(m)
		}
		nonCov := bitset.Set(w.rows[:sw]) // borrow row scratch for the mask
		nonCov.CopyFrom(bitset.Set(ins.updFullRow))
		nonCov.AndNot(cov)
		relVals := ins.flipRelVals[k*I : (k+1)*I]
		relOrder := ins.flipRelOrder[k*I : (k+1)*I]
		lo, hi, set := flipRange(relVals, oldRelay, newRelay)
		for j := lo; j < hi; j++ {
			i := int(relOrder[j])
			row := bitset.Set(rows[i*sw : (i+1)*sw])
			for wd, word := range nonCov {
				if ins.capBlock != nil {
					// Blocked bits were never set, so masking the clears
					// too keeps both directions of the flip exact.
					word &^= ins.capBlock[i*sw+wd]
				}
				if set {
					row[wd] |= word
				} else {
					row[wd] &^= word
				}
				if track && word != 0 {
					w.emit(i, k, wd, set, word)
				}
			}
		}
	}

	dirVals := ins.flipDirVals[k*I : (k+1)*I]
	dirOrder := ins.flipDirOrder[k*I : (k+1)*I]
	for _, m := range covering {
		oldRate, newRate := w.oldRate[m], ins.avgRate[m*K+k]
		if oldRate == newRate {
			continue
		}
		mw, mb := m>>6, uint64(1)<<uint(m&63)
		lo, hi, set := flipRange(dirVals, oldRate, newRate)
		for j := lo; j < hi; j++ {
			i := int(dirOrder[j])
			if ins.capBlock != nil && ins.capBlock[i*sw+mw]&mb != 0 {
				continue // m cannot store i: the bit stays clear
			}
			row := bitset.Set(rows[i*sw : (i+1)*sw])
			if set {
				row.Set(m)
			} else {
				row.Clear(m)
			}
			if track {
				w.emit(i, k, mw, set, mb)
			}
		}
	}
}

// recomputeUserRows is the coverage-changed fallback: recompute user k's
// rows in one fused pass — verdict, diff against the stored row, inverted-
// index op, store — with the covering rates hoisted out of the model
// loop. The verdicts are the same compares fillReachRows performs, so the
// result stays bit-identical to a full rebuild. track false stores the
// rows without diffing or op recording (zero-mass users).
func (ins *Instance) recomputeUserRows(k int, covering []int, w *updWorker, track bool) {
	K, I := ins.NumUsers(), ins.NumModels()
	sw := ins.serverWords
	minDir := ins.minDirRate[k*I : (k+1)*I]
	minRel := ins.minRelRate[k*I : (k+1)*I]
	relay := ins.bestRelay[k]
	// Covering rates and their bit masks, gathered once (rates are positive
	// for every covering link, matching fillReachRows' direct > 0 guard).
	dirRates := w.dirRates[:0]
	dirBits := w.dirBits[:0]
	for _, m := range covering {
		if r := ins.avgRate[m*K+k]; r > 0 {
			dirRates = append(dirRates, r)
			dirBits = append(dirBits, 1<<uint(m&63))
		}
	}
	if sw == 1 {
		fullWord := ins.updFullRow[0]
		if relay <= 0 {
			fullWord = 0 // relay verdict constant-false; compare below can't pass
		}
		capBlock := ins.capBlock
		rows := ins.reachSrv[k*I : (k+1)*I : (k+1)*I]
		minRel, minDir := minRel[:len(rows)], minDir[:len(rows)]
		for i := range rows {
			var word uint64
			if relay >= minRel[i] {
				word = fullWord
			}
			for j, direct := range dirRates {
				if direct >= minDir[i] {
					word |= dirBits[j]
				} else {
					word &^= dirBits[j]
				}
			}
			if capBlock != nil {
				word &^= capBlock[i]
			}
			if !track {
				rows[i] = word
				continue
			}
			diff := rows[i] ^ word
			if diff == 0 {
				continue
			}
			rows[i] = word
			if sm := word & diff; sm != 0 {
				w.emit(i, k, 0, true, sm)
			}
			if cm := diff &^ word; cm != 0 {
				w.emit(i, k, 0, false, cm)
			}
		}
		return
	}
	ins.fillReachRows(k, covering, ins.avgRate, relay, bitset.Set(ins.updFullRow), w.rows)
	rows := ins.reachSrv[k*I*sw : (k+1)*I*sw]
	if track {
		for i := 0; i < I; i++ {
			for wd := 0; wd < sw; wd++ {
				newWord := w.rows[i*sw+wd]
				diff := rows[i*sw+wd] ^ newWord
				if diff == 0 {
					continue
				}
				if sm := newWord & diff; sm != 0 {
					w.emit(i, k, wd, true, sm)
				}
				if cm := diff &^ newWord; cm != 0 {
					w.emit(i, k, wd, false, cm)
				}
			}
		}
	}
	copy(rows, w.rows)
}

// MemoryFootprint reports the heap bytes the instance owns, by component:
// both packed reachability orientations, the threshold rank index, the
// rate/threshold tables, the workload (headers only when rows alias a
// parent), the topology, and the reusable update scratch. Capacities are
// counted, not lengths — the footprint is what the instance pins in steady
// state.
func (ins *Instance) MemoryFootprint() memprof.Footprint {
	var f memprof.Footprint
	f.Reach = int64(cap(ins.reachSrv)+cap(ins.reachUsr)) * 8
	f.Rank = int64(cap(ins.flipDirOrder)+cap(ins.flipRelOrder))*4 +
		int64(cap(ins.flipDirVals)+cap(ins.flipRelVals))*8
	f.Rates = int64(cap(ins.avgRate)+cap(ins.bestRelay)+cap(ins.minDirRate)+cap(ins.minRelRate)+cap(ins.sizeBits)) * 8
	for m := range ins.shadow {
		f.Rates += int64(cap(ins.shadow[m])) * 8
	}
	f.Workload = ins.work.MemoryBytes()
	f.Topology = ins.topo.MemoryBytes()
	f.Scratch = int64(cap(ins.updDirty)+cap(ins.updForce)+cap(ins.userHasMass)+cap(ins.down)) * 1
	f.Scratch += int64(cap(ins.capBits)+cap(ins.capBlock)) * 8
	f.Scratch += int64(cap(ins.updUsers)+cap(ins.updOff)+cap(ins.updCur)+cap(ins.updBounds)+cap(ins.updRevised)) * 8
	f.Scratch += int64(cap(ins.updFullRow)+cap(ins.updTouched)) * 8
	f.Scratch += int64(cap(ins.updOps)) * 16
	f.Scratch += int64(cap(ins.rankBuf)) * 16
	f.Scratch += int64(cap(ins.updDelta.Pairs)) * 8
	for _, uw := range ins.updWorkers {
		f.Scratch += int64(cap(uw.oldRate)+cap(uw.dirRates))*8 +
			int64(cap(uw.dirBits)+cap(uw.covMask)+cap(uw.rows))*8 +
			int64(cap(uw.ops))*16
	}
	if ins.moveScratch != nil {
		f.Scratch += ins.moveScratch.MemoryBytes()
	}
	return f
}

// Topology returns the deployment.
func (ins *Instance) Topology() *topology.Topology { return ins.topo }

// Library returns the model library.
func (ins *Instance) Library() *modellib.Library { return ins.lib }

// Workload returns the demand model.
func (ins *Instance) Workload() *workload.Workload { return ins.work }

// Wireless returns the channel configuration.
func (ins *Instance) Wireless() wireless.Config { return ins.wcfg }

// NumServers returns M.
func (ins *Instance) NumServers() int { return ins.topo.NumServers() }

// NumUsers returns K.
func (ins *Instance) NumUsers() int { return ins.work.NumUsers() }

// NumModels returns I.
func (ins *Instance) NumModels() int { return ins.lib.NumModels() }

// AvgRateBps returns C̄_{m,k} (eq. 1), or 0 when m does not cover k.
func (ins *Instance) AvgRateBps(m, k int) float64 { return ins.avgRate[m*ins.NumUsers()+k] }

// LatencyS returns T_{m,k,i} in seconds under the average channel
// (eqs. 4–5), +Inf if unreachable.
func (ins *Instance) LatencyS(m, k, i int) float64 {
	return ins.latency(m, k, i, ins.avgRate, ins.bestRelay)
}

// Reachable returns I1(m,k,i) under the average channel: whether server m
// can deliver model i to user k within the QoS deadline.
func (ins *Instance) Reachable(m, k, i int) bool {
	return ins.ServerMask(k, i).Has(m)
}

// ServerMask returns the packed set of servers that can serve model i to
// user k within its deadline under the average channel. The returned slice
// aliases internal state; callers must treat it as read-only.
func (ins *Instance) ServerMask(k, i int) bitset.Set {
	sw := ins.serverWords
	off := (k*ins.NumModels() + i) * sw
	return bitset.Set(ins.reachSrv[off : off+sw])
}

// UserMask returns the packed set of users to whom server m can deliver
// model i within their deadlines under the average channel. The returned
// slice aliases internal state; callers must treat it as read-only.
//
// Bits of zero-mass users (all-zero probability rows — the shard layer's
// ghosts and parked slots) may lag their reach rows on delta-updated
// instances: such users are untracked until they regain mass, which is
// invisible to every mass computation (their contribution is exactly
// zero) and reconciled by ReviseUsers before mass returns.
func (ins *Instance) UserMask(m, i int) bitset.Set {
	uw := ins.userWords
	off := (i*ins.NumServers() + m) * uw
	return bitset.Set(ins.reachUsr[off : off+uw])
}

// ServerMaskWords returns the number of words in each server mask.
func (ins *Instance) ServerMaskWords() int { return ins.serverWords }

// PackedServerMasks returns every server mask concatenated, laid out
// [(k*I+i)*ServerMaskWords() + w]. With single-word masks (M ≤ 64) this
// lets evaluators stream one contiguous word per request. The slice
// aliases internal state; callers must treat it as read-only.
func (ins *Instance) PackedServerMasks() []uint64 { return ins.reachSrv }

// UserMaskWords returns the number of words in each user mask.
func (ins *Instance) UserMaskWords() int { return ins.userWords }

// Prob returns p_{k,i}.
func (ins *Instance) Prob(k, i int) float64 { return ins.work.Prob(k, i) }

// ProbRow returns user k's probability vector over all models (read-only).
func (ins *Instance) ProbRow(k int) []float64 { return ins.work.ProbRow(k) }

// TotalMass returns Σ p_{k,i}, the denominator of eq. (2).
func (ins *Instance) TotalMass() float64 { return ins.totalMass }

// HitMass returns u(m,i) without the I2 exclusion (eq. 14 with I2 ≡ 1): the
// expected request mass server m can serve by caching model i.
func (ins *Instance) HitMass(m, i int) float64 {
	var sum float64
	ins.UserMask(m, i).ForEach(func(k int) {
		sum += ins.Prob(k, i)
	})
	return sum
}

// Reach is a word-packed I1 indicator for one channel realization: for every
// (user, model) request it holds the set of servers able to deliver within
// the QoS deadline. Buffers are reusable across realizations (allocate once
// per goroutine with MakeReachBuffer) and carry their own rate scratch so a
// FadedReach call performs no allocation.
type Reach struct {
	numServers, numUsers, numModels int
	words                           int      // server-mask words
	bits                            []uint64 // [(k*I+i)*words + w], bit m
	rates                           []float64
	relay                           []float64
}

// ServerMask returns the packed set of servers that can serve model i to
// user k under this realization. The slice aliases the buffer.
func (r *Reach) ServerMask(k, i int) bitset.Set {
	off := (k*r.numModels + i) * r.words
	return bitset.Set(r.bits[off : off+r.words])
}

// Has reports I1(m,k,i) under this realization.
func (r *Reach) Has(m, k, i int) bool { return r.ServerMask(k, i).Has(m) }

// Dims returns (M, K, I).
func (r *Reach) Dims() (numServers, numUsers, numModels int) {
	return r.numServers, r.numUsers, r.numModels
}

// Words returns the number of words in each server mask.
func (r *Reach) Words() int { return r.words }

// MemoryBytes returns the heap bytes the buffer owns.
func (r *Reach) MemoryBytes() int64 {
	return int64(cap(r.bits)+cap(r.rates)+cap(r.relay)) * 8
}

// PackedServerMasks returns every server mask concatenated, laid out
// [(k*I+i)*Words() + w]. The slice aliases the buffer; callers must treat
// it as read-only.
func (r *Reach) PackedServerMasks() []uint64 { return r.bits }

// FadedReach computes the I1 indicator under one Rayleigh-fading
// realization. gains[m][k] is the fading power gain |h|^2 for covering
// links (ignored elsewhere). The result is written into dst (allocate with
// MakeReachBuffer; nil allocates a fresh buffer) and returned.
//
// The placement is decided on average channel gains while performance is
// examined under fading (§VII-A); this method powers that evaluation.
func (ins *Instance) FadedReach(gains [][]float64, dst *Reach) (*Reach, error) {
	M, K := ins.NumServers(), ins.NumUsers()
	if err := ins.checkGains(gains); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = ins.MakeReachBuffer()
	}
	if dst.numServers != M || dst.numUsers != K || dst.numModels != ins.NumModels() {
		return nil, fmt.Errorf("scenario: reach buffer dims %dx%dx%d, want %dx%dx%d",
			dst.numServers, dst.numUsers, dst.numModels, M, K, ins.NumModels())
	}
	if err := ins.fadeRates(gains, dst.rates, dst.relay); err != nil {
		return nil, err
	}
	ins.fillReach(dst.rates, dst.relay, dst.bits)
	return dst, nil
}

// MakeReachBuffer allocates a reusable buffer for FadedReach.
func (ins *Instance) MakeReachBuffer() *Reach {
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	return &Reach{
		numServers: M,
		numUsers:   K,
		numModels:  I,
		words:      ins.serverWords,
		bits:       make([]uint64, K*I*ins.serverWords),
		rates:      make([]float64, M*K),
		relay:      make([]float64, K),
	}
}
