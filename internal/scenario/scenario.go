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
	"slices"

	"trimcaching/internal/bitset"
	"trimcaching/internal/geom"
	"trimcaching/internal/memprof"
	"trimcaching/internal/modellib"
	"trimcaching/internal/pool"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// Instance is a problem instance. It is immutable except through
// ReviseUsers, which moves users and incrementally refreshes every derived
// quantity (the user masks on their next read), and the outage and
// capacity seams; callers that need a frozen snapshot use Rebuild.
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
	// kernels and the TotalMass resum skip them outright — a bitwise no-op
	// on the result. Maintained by ReviseUsers; rows must not change behind
	// its back.
	userHasMass []bool

	// Threshold form of the QoS verdicts (eqs. 3–5): server m can serve
	// (k,i) directly iff its rate ≥ minDirRate, and any server can relay
	// iff the user's best rate ≥ minRelRate (+Inf marks requests no rate
	// can satisfy). The thresholds depend only on the workload, library,
	// and backhaul — never on positions — so they survive user movement
	// and turn the per-realization reachability fill into one compare per
	// entry, with no divisions. A rank provider (NewRanked) may copy a
	// user's rows instead of dividing them out (fillUserRows).
	minDirRate []float64 // minDirRate[k*I+i] = sizeBits / (deadline − infer)
	minRelRate []float64 // minRelRate[k*I+i] = sizeBits / (deadline − infer − sizeBits/backhaul)

	// Word-packed I1(m,k,i) under the average channel, in both orientations
	// the algorithms need: server masks answer "which servers can serve
	// request (k,i)" with one AND, user masks answer "which users does
	// placing (m,i) newly cover" with one AND-NOT sweep. The update paths
	// keep only the server masks current and set usrStale; UserMask
	// re-derives the user masks from them on its first call after a change.
	serverWords int
	userWords   int
	reachSrv    []uint64 // [(k*I+i)*serverWords + w], bit m
	reachUsr    []uint64 // [(i*M+m)*userWords + w], bit k — model-major
	usrStale    bool     // reachUsr lags reachSrv (syncUserMasks)

	// Incremental-update state: gen counts update calls (warm-start
	// caches key their validity on it), the scratch below is reused across
	// calls so a delta update performs no steady-state allocation. Dirty
	// users are processed in parallel shares — their rate columns and reach
	// rows are disjoint — with each share ORing the (model, server word)
	// bits it changed into its own touched array; OR is order-free, so
	// results are bit-identical for any worker count. revGen counts
	// ReviseUsers calls that swapped workload rows, so caches derived from
	// probabilities (the evaluator's transposed table) know to refresh.
	gen           int
	revGen        int
	updDirty      []bool   // per-user dirty flag scratch
	updForce      []bool   // per-user forced-recompute flag (revised users)
	updUsers      []int    // dirty-user list scratch
	updFullRow    []uint64 // all-servers mask, serverWords
	updWorkers    []*updWorker
	updMaxWorkers int        // caller-imposed update worker bound; 0 = GOMAXPROCS
	updRun        updRun     // the update phase's pool task, reused
	rankBuf       []rankPair // per-user rank rebuild scratch (ReviseUsers)
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
	// qualifying verdicts as rank prefixes of the same rows, reading the
	// sorted thresholds through the order from minDirRate/minRelRate.
	flipDirOrder []uint16 // flipDirOrder[k*I+j]: model at rank j of user k's direct thresholds
	flipRelOrder []uint16

	// rankProvider optionally supplies a user's precomputed threshold and
	// rank rows instead of the per-user divisions and O(I log I) sort (see
	// NewRanked).
	rankProvider RankProvider
}

// maxModels is the largest library the uint16 rank orders can index.
const maxModels = 1 << 16

// RankProvider fills user k's QoS rate thresholds (minDir and minRel) and
// their rank rows (dirOrder and relOrder), each I long, from an external
// source and reports whether it did. The filled rows must equal, bit for
// bit, what the instance would compute from the user's current deadline
// and inference rows, and sort them exactly as buildRankRow would — the
// shard layer satisfies this by copying the global instance's rows for the
// bound user, whose rows are identical by construction. Returning false
// falls back to the divisions and the sort.
type RankProvider func(k int, dirOrder, relOrder []uint16, minDir, minRel []float64) bool

// New validates the components and precomputes rates, latencies, and I1.
func New(topo *topology.Topology, lib *modellib.Library, work *workload.Workload, wcfg wireless.Config) (*Instance, error) {
	return newInstance(topo, lib, work, wcfg, nil, nil, false)
}

// NewRanked is New with a rank provider installed before the thresholds
// and their rank index are built, so the construction-time rows fill
// through copies instead of per-user divisions and sorts. The shard layer
// builds cell instances this way: a bound slot's thresholds equal its
// global user's, so its threshold and rank rows come straight from the
// global instance. The provider stays installed for later rebinds:
// ReviseUsers refills a revised user's rows through it.
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
// that no cell ever reads. Coordinator instances reject ReviseUsers and
// Rebuild; cells carry their own full instances.
func NewCoordinator(topo *topology.Topology, lib *modellib.Library, work *workload.Workload, wcfg wireless.Config) (*Instance, error) {
	ins, err := newInstance(topo, lib, work, wcfg, nil, nil, true)
	return ins, err
}

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
	if lib.NumModels() > maxModels {
		return nil, fmt.Errorf("scenario: library has %d models, the rank index holds at most %d",
			lib.NumModels(), maxModels)
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
	ins.serverWords = bitset.Words(M)
	ins.userWords = bitset.Words(K)
	if !coordinator {
		// The up-servers mask starts full and is maintained by
		// SetServersDown; every reachability fill (construction, faded
		// realizations, delta updates) broadcasts relay verdicts over it.
		ins.updFullRow = make([]uint64, ins.serverWords)
		bitset.Set(ins.updFullRow).SetAll(M)
		ins.reachSrv = make([]uint64, K*I*ins.serverWords)
		ins.reachUsr = make([]uint64, M*I*ins.userWords)
		ins.usrStale = true
	}
	ins.userHasMass = make([]bool, K)
	for k := 0; k < K; k++ {
		ins.userHasMass[k] = rowHasMass(work.ProbRow(k))
	}
	ins.totalMass = ins.massSum()
	// The thresholds and their rank index are position-independent. Every
	// fused measurement sweep reads its verdict sets as rank prefixes, so
	// the index is built here — fresh instances, rebuild-mode engines, and
	// newly sliced shard cells all measure through it from their first
	// realization. An installed provider (NewRanked) fills rows by copying
	// instead of dividing and sorting; its sort scratch stays for the
	// rebinds that will reuse it. The reach fill reads the thresholds, so it
	// runs last.
	ins.flipDirOrder = make([]uint16, K*I)
	ins.flipRelOrder = make([]uint16, K*I)
	ins.rankProvider = provider
	pairs := make([]rankPair, I)
	if provider != nil {
		ins.rankBuf = pairs
	}
	for k := 0; k < K; k++ {
		ins.fillUserRows(k, pairs)
	}
	if !coordinator {
		ins.fillReach(ins.avgRate, ins.bestRelay, ins.reachSrv)
	}
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

// massSum returns Σ p_{k,i} in construction order — ascending users, each
// row in model order — adding only the rows of users with request mass. A
// skipped row has no positive entry, so it could add only +0 to the
// non-negative running sum: the result has the same bits as the full sum.
func (ins *Instance) massSum() float64 {
	var total float64
	for k, has := range ins.userHasMass {
		if !has {
			continue
		}
		for _, p := range ins.work.ProbRow(k) {
			total += p
		}
	}
	return total
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
// fading realizations (FadedReach), and delta updates (ReviseUsers), so all
// three stay bit-identical by construction.
//
// The relay-path latency (eq. 5) does not depend on the serving server m,
// so its verdict is computed once per (k,i) and broadcast across the whole
// mask; only the (sparse) covering servers are then patched with their
// direct-path verdict (eq. 4). Both verdicts use the precomputed threshold
// form — rate ≥ sizeBits/slack instead of sizeBits/rate + … ≤ deadline —
// which is algebraically the same test reduced to one compare per entry,
// and which ReviseUsers' flip index shares so delta updates agree exactly.
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

// shadowGain returns the slow-fading gain of link (m,k), 1 when disabled.
func (ins *Instance) shadowGain(m, k int) float64 {
	if ins.shadow == nil {
		return 1
	}
	return ins.shadow[m][k]
}

// Generation counts the updates applied to this instance: ReviseUsers,
// SetServersDown and capacity changes. Caches derived from the reachability
// masks (e.g. the placement evaluator's marginal-gain memo) key their
// validity on it.
func (ins *Instance) Generation() int { return ins.gen }

// RevisionGeneration counts the ReviseUsers calls that swapped workload
// rows. Caches derived from request probabilities (the evaluator's
// transposed probability table) key their validity on it; calls that only
// move users never advance it.
func (ins *Instance) RevisionGeneration() int { return ins.revGen }

// Shadowed reports whether the instance carries per-link shadowing gains.
// The shard layer rejects shadowed instances: shadowing is keyed by
// (server, user) index pairs, which slot rebinding would scramble.
func (ins *Instance) Shadowed() bool { return ins.shadow != nil }

// Delta describes what one ReviseUsers call changed, in the form the
// warm-start machinery consumes. Probability rows are not described: a
// call that swapped any advances RevisionGeneration, and caches derived
// from probabilities refresh when they next see it. The delta returned by
// ReviseUsers — struct and slices — is owned by the instance and reused:
// it is valid until the next update call, and callers that hold deltas
// across updates must copy what they keep.
type Delta struct {
	// Gen is the instance generation this delta produced.
	Gen int
	// Users lists, ascending, the users whose rate and reachability rows
	// were recomputed: the moved users plus every user of a server whose
	// association load changed.
	Users []int
	// Pairs packs the (server, model) pairs — bit m*I+i — whose user
	// reachability mask changed at a user with request mass (a zero-mass
	// user's bits move no gain). Placement warm starts recompute exactly
	// these marginal gains and reuse the rest. For revised users (see
	// ReviseUsers) every pair their reach rows touch is included, changed
	// or not: the mask may be unchanged while the probability under it is
	// not.
	Pairs bitset.Set
}

// Rebuild returns a fresh instance with the same servers, library,
// workload, wireless configuration, and per-link shadowing, but users at
// the given positions. It is the one rebuild path shared by every dynamic
// layer — and the reference ReviseUsers is pinned against.
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

// ReviseUsers moves user moved[j] to pos[j] and incrementally refreshes the
// association sets, average rates, relay rates, and the server masks,
// bit-identical to Rebuild on the full updated position vector but touching
// only the users the move affects: the moved users plus the users of
// servers whose load changed. The user masks are not kept current: a call
// that recomputed any user marks them stale, and the next UserMask call
// re-derives them. Per-link shadowing, when present, stays attached to the
// (server, user) index pair. The returned delta reports the changed
// reachability pairs for warm-start consumers; a pure move passes nil
// revised and massOnly lists.
//
// It also revises workload rows: revised lists users whose rows in the
// instance's workload were swapped (via workload.SetUserRows) since the last
// update. For each revised user the QoS rate thresholds and their rank rows
// are refilled before the movement pass — copied through the rank provider
// when it has the user, recomputed from the new deadline and inference rows
// otherwise — the reachability rows are recomputed unconditionally (a
// threshold change invalidates the rate-crossing flip search), and every
// pair the user's reach rows touch is reported in Delta.Pairs — the masks
// may be unchanged while the request mass under them is not. massOnly lists
// users whose probability row alone was swapped (workload.SetUserProbRow)
// while their deadline and inference rows stayed bound: thresholds, rank
// rows, and reachability need no work beyond any movement the user also has,
// so only the gain invalidation applies — the cheap path for the shard
// layer's ownership flips and parkings. Either list advances
// RevisionGeneration, which tells probability-derived caches to refresh.
// TotalMass is resummed in construction order over the users with mass
// whenever any row changed, so a revised instance stays bit-identical to a
// fresh build over the same workload.
// Revised users need not appear in moved; movement semantics for moved users
// are those of a pure move. This is the shard layer's handoff seam:
// cross-cell movement becomes paired calls — park and zero the slot in the
// cell the user left, bind and move it in the cell it entered.
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
	if len(revised) > 0 && ins.rankBuf == nil {
		ins.rankBuf = make([]rankPair, I)
	}
	dirty := ins.updDirty
	for _, k := range revised {
		ins.fillUserRows(k, ins.rankBuf)
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

	// Phase 1, parallel over contiguous shares of the dirty users: rate
	// columns, relay rates, and reach rows are disjoint per user, so shares
	// write them directly, and each share ORs the (model, server word) bits
	// it changed into its own touched array. Phase 2 ORs the arrays
	// together — OR is order-free, so the outcome is bit-identical for any
	// worker count. A single share runs on the calling goroutine: no
	// spawns, no allocation.
	workers := pool.Size(ins.updMaxWorkers, len(dirtyUsers)/minUsersPerWorker)
	for len(ins.updWorkers) < workers {
		ins.updWorkers = append(ins.updWorkers, newUpdWorker(M, I, ins.serverWords))
	}
	for _, uw := range ins.updWorkers[:workers] {
		clear(uw.touched)
	}
	ins.updRun = updRun{ins: ins, users: dirtyUsers, shares: workers}
	if err := pool.Run(workers, workers, &ins.updRun); err != nil {
		return nil, err
	}

	touched := ins.updWorkers[0].touched
	for _, uw := range ins.updWorkers[1:workers] {
		for j, word := range uw.touched {
			touched[j] |= word
		}
	}
	if len(revised)+len(massOnly) > 0 {
		// A revised user's request mass changed under masks that may not
		// have: every pair its reach rows touch carries a stale gain.
		n := len(touched) // one user's reach rows, I*serverWords
		markRows := func(k int) {
			for j, word := range ins.reachSrv[k*n : (k+1)*n] {
				touched[j] |= word
			}
			ins.userHasMass[k] = rowHasMass(ins.work.ProbRow(k))
		}
		for _, k := range revised {
			ins.updForce[k] = false
			markRows(k)
		}
		for _, k := range massOnly {
			markRows(k)
		}
		// Resum in construction order: a revised instance's TotalMass stays
		// bit-identical to a fresh build over the same workload.
		ins.totalMass = ins.massSum()
		ins.revGen++
	}
	ins.foldTouchedPairs(ins.resetPairs(), touched)
	if len(dirtyUsers) > 0 {
		ins.usrStale = true
	}
	ins.gen++
	// The delta and every slice it carries are owned by the instance and
	// valid until the next ReviseUsers call; steady-state callers (the
	// dynamics engines) consume it before their next refresh, so the loop
	// allocates nothing. Holding a delta across updates
	// requires a copy.
	ins.updDelta.Gen = ins.gen
	ins.updDelta.Users = dirtyUsers
	return &ins.updDelta, nil
}

// updRun is ReviseUsers' pool task: task s refreshes the s-th of shares
// contiguous slices of users on scratch updWorkers[s].
type updRun struct {
	ins    *Instance
	users  []int
	shares int
}

// Do implements pool.Task. A user moved by the current call diffs against
// its parked pre-move coverage row; any other dirty user's coverage is
// unchanged, so the live row is the old row.
func (r *updRun) Do(_, s int) error {
	ins, n := r.ins, len(r.users)
	for _, k := range r.users[s*n/r.shares : (s+1)*n/r.shares] {
		oldCovering, movedNow := ins.moveScratch.OldCovering(k)
		if !movedNow {
			oldCovering = ins.topo.ServersCovering(k)
		}
		if err := ins.updateUser(k, oldCovering, ins.updWorkers[s]); err != nil {
			return err
		}
	}
	return nil
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

// updWorker is one update share's scratch.
type updWorker struct {
	oldRate  []float64 // old covering rates, indexed by server
	dirRates []float64 // gathered covering rates
	dirBits  []uint64  // matching single-word bit masks
	covMask  []uint64  // covering-servers mask, serverWords
	rows     []uint64  // recompute scratch (multi-word masks), I*serverWords
	// touched[i*serverWords+w] collects the server bits of word w whose
	// user mask for model i this worker changed; ReviseUsers folds the
	// workers' arrays into Delta.Pairs.
	touched []uint64
}

func newUpdWorker(M, I, serverWords int) *updWorker {
	return &updWorker{
		oldRate:  make([]float64, M),
		dirRates: make([]float64, 0, M),
		dirBits:  make([]uint64, 0, M),
		covMask:  make([]uint64, serverWords),
		rows:     make([]uint64, I*serverWords),
		touched:  make([]uint64, I*serverWords),
	}
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
// their reach rows are kept exact, but their changes add no pairs to the
// delta — their UserMask bits carry no request mass, so no marginal gain
// moves with them, and the shard layer's ghost bands pay no diffing.
// ReviseUsers marks every pair of a user that regains mass.
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

// fillUserRows fills user k's QoS rate thresholds and their rank rows —
// the models by ascending direct and relay threshold — through the rank
// provider when it has the user. Otherwise it divides the thresholds out of
// the workload's deadline and inference rows and sorts them, with pairs as
// the I-element sort scratch. Construction runs it for every user and
// ReviseUsers for every rebound one. The thresholds are
// position-independent, so only a workload row swap rewrites a user's rows.
func (ins *Instance) fillUserRows(k int, pairs []rankPair) {
	do, ro, minDir, minRel := ins.UserRankRows(k)
	if ins.rankProvider != nil && ins.rankProvider(k, do, ro, minDir, minRel) {
		return
	}
	deadline, infer := ins.work.DeadlineRow(k), ins.work.InferRow(k)
	for i, size := range ins.sizeBits {
		slack := deadline[i] - infer[i]
		minDir[i] = rateThreshold(size, slack)
		minRel[i] = rateThreshold(size, slack-size/ins.wcfg.BackhaulBps)
	}
	buildRankRow(do, minDir, pairs)
	buildRankRow(ro, minRel, pairs)
}

// SetUpdateWorkers bounds the parallel user-update phase of ReviseUsers,
// which runs one worker per 32 dirty users up to the bound; 0 restores the
// default GOMAXPROCS bound, and an explicit bound is honoured as given.
// Results are bit-identical for any bound — the engines thread their
// Workers pin through so a single-goroutine configuration really runs
// single-goroutine here too.
func (ins *Instance) SetUpdateWorkers(n int) { ins.updMaxWorkers = n }

// UserRankRows returns user k's rank rows — models by ascending direct and
// relay rate threshold — and the model-order threshold rows they sort. The
// rows exist from construction. The slices alias internal state; treat as
// read-only.
func (ins *Instance) UserRankRows(k int) (dirOrder, relOrder []uint16, minDir, minRel []float64) {
	I := ins.NumModels()
	return ins.flipDirOrder[k*I : (k+1)*I], ins.flipRelOrder[k*I : (k+1)*I],
		ins.minDirRate[k*I : (k+1)*I], ins.minRelRate[k*I : (k+1)*I]
}

// rankPair is one (threshold, model) entry of the rank index build.
type rankPair struct {
	v float64
	i uint16
}

// buildRankRow fills one user's rank row — the model permutation sorted by
// ascending threshold — from its threshold row; pairs is an I-element
// scratch. Ties order arbitrarily: every consumer (flip ranges, rank prefix
// cutoffs) selects by value boundary, so equal-threshold models are always
// taken as a block. Sorting (value, index) pairs through slices.SortFunc
// keeps the comparator inlined — sort.Slice's reflection-based swapper
// tripled the one-time index cost at LoRA scale.
func buildRankRow(order []uint16, thresholds []float64, pairs []rankPair) {
	for j := range pairs {
		pairs[j] = rankPair{v: thresholds[j], i: uint16(j)}
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
	}
}

// flipRange returns the rank interval [lo, hi) of thresholds crossed by a
// rate change old→new: thresholds t with min(old,new) < t ≤ max(old,new),
// in the rank row order that sorts thr. Exactly these verdicts (rate ≥ t)
// flip; rising rates set them, falling rates clear them.
func flipRange(thr []float64, order []uint16, oldRate, newRate float64) (lo, hi int, set bool) {
	a, b := oldRate, newRate
	set = newRate > oldRate
	if !set {
		a, b = b, a
	}
	lo = searchGreater(thr, order, a)
	hi = lo + searchGreater(thr, order[lo:], b)
	return lo, hi, set
}

// flipUserRows applies a same-coverage rate change to user k's reach rows:
// binary-search the user's threshold ranks for the verdicts the relay and
// per-server rate changes crossed, and toggle exactly those bits —
// O(M·log I + flips) instead of an O(I) refill — recording them in the
// worker's touched array. track false (zero-mass user) updates the rows
// but records nothing.
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
		relOrder := ins.flipRelOrder[k*I : (k+1)*I]
		lo, hi, set := flipRange(ins.minRelRate[k*I:(k+1)*I], relOrder, oldRelay, newRelay)
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
				if track {
					w.touched[i*sw+wd] |= word
				}
			}
		}
	}

	dirThr := ins.minDirRate[k*I : (k+1)*I]
	dirOrder := ins.flipDirOrder[k*I : (k+1)*I]
	for _, m := range covering {
		oldRate, newRate := w.oldRate[m], ins.avgRate[m*K+k]
		if oldRate == newRate {
			continue
		}
		mw, mb := m>>6, uint64(1)<<uint(m&63)
		lo, hi, set := flipRange(dirThr, dirOrder, oldRate, newRate)
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
				w.touched[i*sw+mw] |= mb
			}
		}
	}
}

// recomputeUserRows is the coverage-changed fallback: recompute user k's
// rows in one fused pass — verdict, diff against the stored row into the
// worker's touched array, store — with the covering rates hoisted out of
// the model loop. The verdicts are the same compares fillReachRows
// performs, so the result stays bit-identical to a full rebuild. track
// false stores the rows without diffing (zero-mass users).
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
		// A positive-rate covering server's bit is its direct verdict and
		// every other bit the relay broadcast, so both verdicts are selects.
		var base uint64
		if relay > 0 {
			base = ins.updFullRow[0]
			for _, b := range dirBits {
				base &^= b
			}
		}
		dirBits = dirBits[:len(dirRates)]
		capBlock := ins.capBlock
		rows := ins.reachSrv[k*I : (k+1)*I : (k+1)*I]
		minRel, minDir := minRel[:len(rows)], minDir[:len(rows)]
		for i := range rows {
			word := base
			if !(relay >= minRel[i]) {
				word = 0
			}
			mi := minDir[i]
			for j, direct := range dirRates {
				b := dirBits[j]
				if !(direct >= mi) {
					b = 0
				}
				word |= b
			}
			if capBlock != nil {
				word &^= capBlock[i]
			}
			if track {
				w.touched[i] |= rows[i] ^ word
			}
			rows[i] = word
		}
		return
	}
	ins.fillReachRows(k, covering, ins.avgRate, relay, bitset.Set(ins.updFullRow), w.rows)
	rows := ins.reachSrv[k*I*sw : (k+1)*I*sw]
	if track {
		for j, word := range w.rows {
			w.touched[j] |= rows[j] ^ word
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
	f.Rank = int64(cap(ins.flipDirOrder)+cap(ins.flipRelOrder)) * 2
	f.Rates = int64(cap(ins.avgRate)+cap(ins.bestRelay)+cap(ins.minDirRate)+cap(ins.minRelRate)+cap(ins.sizeBits)) * 8
	for m := range ins.shadow {
		f.Rates += int64(cap(ins.shadow[m])) * 8
	}
	f.Workload = ins.work.MemoryBytes()
	f.Topology = ins.topo.MemoryBytes()
	f.Scratch = int64(cap(ins.updDirty)+cap(ins.updForce)+cap(ins.userHasMass)+cap(ins.down)) * 1
	f.Scratch += int64(cap(ins.capBits)+cap(ins.capBlock)) * 8
	f.Scratch += int64(cap(ins.updUsers)) * 8
	f.Scratch += int64(cap(ins.updFullRow)) * 8
	f.Scratch += int64(cap(ins.rankBuf)) * 16
	f.Scratch += int64(cap(ins.updDelta.Pairs)) * 8
	for _, uw := range ins.updWorkers {
		f.Scratch += int64(cap(uw.oldRate)+cap(uw.dirRates))*8 +
			int64(cap(uw.dirBits)+cap(uw.covMask)+cap(uw.rows)+cap(uw.touched))*8
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

// AvgRateBps returns C̄_{m,k} (eq. 1), or 0 when m does not cover k. Only
// tests call it: shard's TestHandoffRowsMatchGlobal pins each cell's rates
// against the global instance's through it.
func (ins *Instance) AvgRateBps(m, k int) float64 { return ins.avgRate[m*ins.NumUsers()+k] }

// Reachable returns I1(m,k,i) under the average channel: whether server m
// can deliver model i to user k within the QoS deadline. Only tests call it,
// as the per-entry oracle of the root TestBitsetMatchesDenseReference,
// placement's TestGenNeverPlacesUselessModels and shard's
// TestHandoffRowsMatchGlobal.
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
// The update paths keep only the server masks current and mark the user
// masks stale, so the first UserMask call after construction or a change
// re-derives every user mask from the server masks (syncUserMasks), and
// later calls read the stored masks. That first call writes: it must not
// run concurrently with another call on the same instance. The placement
// solvers are its only callers, one at a time per instance.
func (ins *Instance) UserMask(m, i int) bitset.Set {
	if ins.usrStale {
		ins.syncUserMasks()
	}
	uw := ins.userWords
	off := (i*ins.NumServers() + m) * uw
	return bitset.Set(ins.reachUsr[off : off+uw])
}

// syncUserMasks re-derives the user masks from the server masks with one
// 64×64 bit transpose per 64-user block b, model i and server word w: the
// block's row words reachSrv[((64b+j)·I+i)·sw+w], zero past K, become word
// b of the rows reachUsr[(i·M+64w+m)·uw+b] of the word's servers m. Every
// word is rewritten, so afterwards every user's bits are exact. The cost
// does not depend on how much changed: about K·I·sw/64 transposes.
func (ins *Instance) syncUserMasks() {
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	sw, uw := ins.serverWords, ins.userWords
	var blk [64]uint64
	for b := 0; b < uw; b++ {
		users := min(64, K-64*b)
		rows := ins.reachSrv[64*b*I*sw:]
		for w := 0; w < sw; w++ {
			servers := min(64, M-64*w)
			width := 1 << mbits.Len(uint(servers-1))
			for i := 0; i < I; i++ {
				for j := 0; j < users; j++ {
					blk[j] = rows[(j*I+i)*sw+w]
				}
				clear(blk[users:])
				transpose64(&blk, width)
				dst := ins.reachUsr[(i*M+64*w)*uw+b:]
				for m := 0; m < servers; m++ {
					dst[m*uw] = blk[m]
				}
			}
		}
	}
	ins.usrStale = false
}

// transposeMasks[s] selects the low 2^s bits of every 2^(s+1)-bit chunk:
// the columns that swap stage j = 2^s of transpose64 pairs with j above.
var transposeMasks = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// transpose64 transposes the 64×64 bit matrix a in place — bit c of a[r]
// moves to bit r of a[c] — for an input whose set bits all lie below
// width, a power of two no larger than 64. Only the first width rows of
// the result are meaningful. A full transpose runs six swap stages, j =
// 32, 16, …, 1, stage j exchanging the j-weight bit of the row index with
// that of the column index. For j ≥ width no set bit's column has that
// bit, so those stages reduce to merges of row k+j into the high bits of
// row k over the rows still live; the log2(width) stages below width swap
// within the first width rows.
func transpose64(a *[64]uint64, width int) {
	j := 32
	for ; j >= width; j >>= 1 {
		for k := 0; k < j; k++ {
			a[k] |= a[k+j] << uint(j)
		}
	}
	for ; j > 0; j >>= 1 {
		mask := transposeMasks[mbits.TrailingZeros(uint(j))]
		for k := 0; k < width; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & mask
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
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
