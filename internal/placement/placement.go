// Package placement implements the paper's contribution: cache-hit-ratio
// maximization for parameter-sharing AI model placement on wireless edge
// servers (P1.1, §IV). It provides the objective U(X) (eq. 2), the
// submodular per-server storage function g_m (eq. 7), and four solvers:
//
//   - TrimCaching Gen (Algorithm 3): greedy for the general case, in naive
//     and lazy-evaluation variants.
//   - TrimCaching Spec (Algorithms 1–2): successive greedy over servers with
//     a DP-rounding knapsack per shared-block combination, achieving a
//     (1-ε)/2 approximation in the special case.
//   - Independent Caching: the content-placement baseline that ignores
//     parameter sharing.
//   - Exhaustive search: the optimal solution for small instances (§VII-D).
package placement

import (
	"fmt"
	mbits "math/bits"

	"trimcaching/internal/bitset"
	"trimcaching/internal/scenario"
)

// Placement is a model placement decision X: which models each edge server
// caches. It is stored word-packed in both orientations: per-server model
// rows (driving storage accounting and enumeration) and per-model server
// columns (driving the evaluator, where "is request (k,i) served" is a
// single AND between a column and the instance's server mask).
type Placement struct {
	numServers  int
	numModels   int
	modelWords  int
	serverWords int
	rows        []uint64 // rows[m*modelWords+w], bit i = x_{m,i}
	cols        []uint64 // cols[i*serverWords+w], bit m = x_{m,i}
}

// NewPlacement returns an empty placement for M servers and I models.
func NewPlacement(numServers, numModels int) *Placement {
	mw, sw := bitset.Words(numModels), bitset.Words(numServers)
	return &Placement{
		numServers:  numServers,
		numModels:   numModels,
		modelWords:  mw,
		serverWords: sw,
		rows:        make([]uint64, numServers*mw),
		cols:        make([]uint64, numModels*sw),
	}
}

// MemoryBytes returns the heap bytes the placement owns (its row and
// column bit tables).
func (p *Placement) MemoryBytes() int64 {
	return int64(cap(p.rows)+cap(p.cols)) * 8
}

// NumServers returns M.
func (p *Placement) NumServers() int { return p.numServers }

// NumModels returns I.
func (p *Placement) NumModels() int { return p.numModels }

// Models returns the packed set of models cached on server m. The slice
// aliases internal state; callers must treat it as read-only.
func (p *Placement) Models(m int) bitset.Set {
	return bitset.Set(p.rows[m*p.modelWords : (m+1)*p.modelWords])
}

// Servers returns the packed set of servers caching model i. The slice
// aliases internal state; callers must treat it as read-only.
func (p *Placement) Servers(i int) bitset.Set {
	return bitset.Set(p.cols[i*p.serverWords : (i+1)*p.serverWords])
}

// Has reports x_{m,i}.
func (p *Placement) Has(m, i int) bool { return p.Models(m).Has(i) }

// Set sets x_{m,i} = 1.
func (p *Placement) Set(m, i int) {
	p.Models(m).Set(i)
	p.Servers(i).Set(m)
}

// Unset sets x_{m,i} = 0.
func (p *Placement) Unset(m, i int) {
	p.Models(m).Clear(i)
	p.Servers(i).Clear(m)
}

// ModelsOn returns the models cached on server m, ascending.
func (p *Placement) ModelsOn(m int) []int {
	var out []int
	p.Models(m).ForEach(func(i int) { out = append(out, i) })
	return out
}

// PackedServerColumns returns every per-model server column concatenated,
// laid out [i*bitset.Words(M) + w], bit m = x_{m,i}. It implements
// scenario.ServerColumns, the fused fading-measurement kernel's read-only
// placement view. The slice aliases internal state; callers must treat it
// as read-only.
func (p *Placement) PackedServerColumns() []uint64 { return p.cols }

var _ scenario.ServerColumns = (*Placement)(nil)

// Clone deep-copies the placement.
func (p *Placement) Clone() *Placement {
	out := NewPlacement(p.numServers, p.numModels)
	copy(out.rows, p.rows)
	copy(out.cols, p.cols)
	return out
}

// Evaluator binds a problem instance and evaluates placements against it.
// It keeps the model-major probability table the bitset kernels consume,
// so the greedy algorithms can sum request mass along a user mask without
// striding through the user-major workload layout.
//
// The evaluator is designed to be reused across incremental instance
// updates: the probability table depends only on the workload (which user
// movement never touches), and the empty-placement marginal-gain memo
// below tracks the instance's mutation generation. Workload revisions
// leave the table alone until the next solve reads it (syncProbs), so a
// burst of handoffs between solves costs one refresh. It is not safe for
// concurrent Place calls; read-only evaluation (HitRatio*) is.
type Evaluator struct {
	ins     *scenario.Instance
	probT   []float64 // probT[i*K+k] = p_{k,i}
	probGen int       // instance revision generation probT reflects

	// Empty-placement marginal-gain memo u0(m,i) = Σ_{k∈UserMask(m,i)} p_{k,i},
	// the quantity every solver's first sweep computes M·I times. Validity is
	// per-pair: ApplyDelta clears exactly the pairs a ReviseUsers call
	// changed; if the instance advanced without ApplyDelta the whole memo
	// drops (generation mismatch).
	baseGain  []float64
	baseValid bitset.Set
	baseGen   int

	// Persistent commit heap: the lazy-greedy starting heap — every
	// (server, model) pair with u0(m,i) above tolerance, keyed by exactly
	// u0(m,i) — kept heap-ordered across solves and across incremental
	// instance updates. Solves consume a copy (candLess is a strict total
	// order, so a copy pops identically to a fresh build); commitHeap
	// re-keys only the pairs marked stale since the heap was last synced.
	// Staleness is tracked in its own bitset, not inferred from baseValid:
	// any BaseGain caller (e.g. a Spec solve sharing the evaluator)
	// revalidates memo entries between ApplyDelta and the next lazy solve,
	// which would otherwise hide the delta from the heap and leave
	// pre-delta keys behind. heapPos[m*I+i] locates a pair's entry, -1
	// when absent (gain at or below tolerance). Keys must be exact — an
	// inflated upper bound would reorder lazy certification against a cold
	// solve — which is why stale entries are re-keyed to BaseGain rather
	// than patched incrementally.
	heapEnt   candidateHeap
	heapPos   []int32
	heapStale bitset.Set
	heapLive  bool

	// Per-solve scratch reused across Place/Repair calls (the evaluator is
	// documented single-solver): the working copy of the commit heap.
	workHeap candidateHeap

	// Word-packed per-model block masks and per-block sizes, built lazily
	// from the (immutable) library on the first deduplicating solve: the
	// greedy cost kernel sums missing-block sizes along mask words instead
	// of probing a bitset per block ID.
	blockMasks []uint64 // [i*blockWords+w], bit j: model i contains block j
	blockSizes []int64
	blockWords int
}

// NewEvaluator returns an evaluator for the instance.
func NewEvaluator(ins *scenario.Instance) (*Evaluator, error) {
	if ins == nil {
		return nil, fmt.Errorf("placement: instance is required")
	}
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	e := &Evaluator{
		ins:       ins,
		probT:     make([]float64, I*K),
		probGen:   -1,
		baseGain:  make([]float64, M*I),
		baseValid: bitset.New(M * I),
		baseGen:   ins.Generation(),
	}
	e.syncProbs()
	return e, nil
}

// MemoryBytes returns the heap bytes the evaluator owns: the transposed
// probability table, the marginal-gain memo and its validity set, the
// persistent commit heap (entries, position index, staleness set) and its
// per-solve working copy, and the lazily built block masks. The instance
// is accounted separately (scenario.Instance.MemoryFootprint).
func (e *Evaluator) MemoryBytes() int64 {
	const candSize = 16 // candidate: key float64 + two int32 coordinates
	n := int64(cap(e.probT)+cap(e.baseGain)) * 8
	n += int64(cap(e.baseValid)+cap(e.heapStale)) * 8
	n += int64(cap(e.heapEnt)+cap(e.workHeap)) * candSize
	n += int64(cap(e.heapPos)) * 4
	return n + int64(cap(e.blockMasks))*8 + int64(cap(e.blockSizes))*8
}

// BaseGain returns u0(m,i): the marginal cache-hit mass of placing model i
// on server m into an empty placement, memoized across calls. The value is
// bit-identical to recomputing the masked probability sum from scratch, so
// warm-started solves reproduce cold solves exactly.
func (e *Evaluator) BaseGain(m, i int) float64 {
	// An instance mutation without ApplyDelta drops the whole memo (and
	// the persistent commit heap, whose keys would all be stale).
	e.syncBase()
	idx := m*e.ins.NumModels() + i
	if !e.baseValid.Has(idx) {
		e.baseGain[idx] = e.maskMass(i, e.ins.UserMask(m, i), nil)
		e.baseValid.Set(idx)
	}
	return e.baseGain[idx]
}

// ApplyDelta absorbs an incremental scenario.Instance.ReviseUsers change
// into the evaluator's caches: only the marginal gains of the delta's
// changed (server, model) pairs are invalidated. Swapped workload rows
// are not patched into the probability table here: the instance's
// revision generation moved, so the next solve refreshes the table once
// (syncProbs), however many deltas came before it. Applying the same delta
// twice is a no-op; skipping a delta degrades to a full invalidation via
// the generation check, never to stale reads.
func (e *Evaluator) ApplyDelta(d *scenario.Delta) error {
	if d == nil {
		return fmt.Errorf("placement: delta is required")
	}
	switch {
	case d.Gen == e.baseGen:
		// Already applied.
	case d.Gen == e.baseGen+1 && len(d.Pairs) == len(e.baseValid):
		e.baseValid.AndNot(d.Pairs)
		if e.heapStale != nil {
			e.heapStale.Or(d.Pairs)
		}
		e.baseGen = d.Gen
	default:
		e.baseValid.Zero()
		e.baseGen = d.Gen
		e.heapLive = false // unknown extent: rebuild the heap outright
	}
	return nil
}

// syncBase re-checks the memo's generation against the instance, dropping
// the whole memo — and the persistent commit heap, whose keys may all be
// stale — when the instance advanced without ApplyDelta (the same safety
// valve BaseGain applies).
func (e *Evaluator) syncBase() {
	if e.baseGen != e.ins.Generation() {
		e.baseValid.Zero()
		e.baseGen = e.ins.Generation()
		e.heapLive = false
	}
}

// syncProbs fills the transposed probability table at construction and
// refreshes it whenever the instance has absorbed workload revisions since
// (its revision generation moved), reading each user's row once. This is
// the only place the table is written: ApplyDelta leaves it to the next
// solve, so the revisions of any number of deltas cost one refresh, and
// only when a solve reads the table. One predictable compare on the solve
// paths' mass kernel; never reached from the read-only HitRatio*
// evaluations.
//
// The fill transposes blocks of eight users, so each model's eight entries
// land in one cache line of the table. Writing one user at a time instead
// strides through I lines a table row apart per user, about 3× slower at a
// shard cell's size.
func (e *Evaluator) syncProbs() {
	gen := e.ins.RevisionGeneration()
	if e.probGen == gen {
		return
	}
	K := e.ins.NumUsers()
	var rows [8][]float64
	for k0 := 0; k0 < K; k0 += len(rows) {
		blk := rows[:min(len(rows), K-k0)]
		for j := range blk {
			blk[j] = e.ins.ProbRow(k0 + j)
		}
		for i := range blk[0] {
			dst := e.probT[i*K+k0:][:len(blk)]
			for j, row := range blk {
				dst[j] = row[i]
			}
		}
	}
	e.probGen = gen
}

// commitHeap returns the lazy-greedy starting heap for the current
// instance state: every pair keyed by its exact empty-placement gain
// u0(m,i), entries at or below tolerance excluded, heap-ordered. The
// returned slice is the evaluator's reusable working scratch — the solve
// consumes it freely while the persistent copy stays intact for the next
// solve. On the first call (or after InvalidateHeap, or whenever the
// instance advanced without a matching ApplyDelta) the heap is built from
// all M·I pairs; afterwards only the pairs a delta marked stale are
// re-keyed to their fresh BaseGain, inserted, or removed — every
// surviving key is still exactly u0, so a warm solve pops the identical
// sequence a cold build would.
//
// Both refills visit pairs model-major, model outer and server inner, so
// the BaseGain sums of one model read its probability row and its M user
// masks (model-major in the instance) while they are in cache. The order
// entries enter in cannot change the pop order: candLess is a strict total
// order.
func (e *Evaluator) commitHeap() candidateHeap {
	M, I := e.ins.NumServers(), e.ins.NumModels()
	e.syncBase()
	switch {
	case !e.heapLive:
		if e.heapPos == nil {
			e.heapPos = make([]int32, M*I)
			e.heapStale = bitset.New(M * I)
		}
		e.heapStale.Zero()
		e.heapEnt = e.heapEnt[:0]
		for i := 0; i < I; i++ {
			for m := 0; m < M; m++ {
				if g := e.BaseGain(m, i); g > gainTolerance {
					e.heapEnt = append(e.heapEnt, candidate{key: g, m: int32(m), i: int32(i)})
				}
			}
		}
		e.heapEnt.init()
		e.reindexHeap()
		e.heapLive = true
	case e.heapStale.Any():
		e.syncHeap()
	}
	e.workHeap = append(e.workHeap[:0], e.heapEnt...)
	return e.workHeap
}

// syncHeap absorbs the accumulated delta marks into the persistent commit
// heap: every stale pair is re-keyed to its (possibly recomputed)
// BaseGain, added when it newly clears the gain tolerance, or removed when
// it no longer does. Stale pairs are visited model-major, like the full
// build. Heap order and the position index are restored wholesale —
// O(M·I), tiny next to the gain recomputation itself.
func (e *Evaluator) syncHeap() {
	M, I := e.ins.NumServers(), e.ins.NumModels()
	for i := 0; i < I; i++ {
		for m := 0; m < M; m++ {
			p := m*I + i
			if !e.heapStale.Has(p) {
				continue
			}
			g := e.BaseGain(m, i)
			pos := e.heapPos[p]
			switch {
			case g > gainTolerance && pos >= 0:
				e.heapEnt[pos].key = g
			case g > gainTolerance:
				e.heapEnt = append(e.heapEnt, candidate{key: g, m: int32(m), i: int32(i)})
				e.heapPos[p] = int32(len(e.heapEnt) - 1)
			case pos >= 0:
				last := len(e.heapEnt) - 1
				moved := e.heapEnt[last]
				e.heapEnt[pos] = moved
				e.heapPos[int(moved.m)*I+int(moved.i)] = pos
				e.heapEnt = e.heapEnt[:last]
				e.heapPos[p] = -1
			}
		}
	}
	e.heapStale.Zero()
	e.heapEnt.init()
	e.reindexHeap()
}

// reindexHeap rebuilds heapPos from the heap entries.
func (e *Evaluator) reindexHeap() {
	I := e.ins.NumModels()
	for p := range e.heapPos {
		e.heapPos[p] = -1
	}
	for idx, c := range e.heapEnt {
		e.heapPos[int(c.m)*I+int(c.i)] = int32(idx)
	}
}

// InvalidateHeap drops the persistent commit heap, forcing the next lazy
// solve to rebuild it from all M·I pairs. Results are unaffected — the
// rebuilt heap holds the same entries a synced one would — so this exists
// for benchmarks isolating the heap carry-over's contribution
// (cmd/benchdyn's resolve section) and as an explicit reset hook.
func (e *Evaluator) InvalidateHeap() { e.heapLive = false }

// ensureBlockIndex builds the word-packed model→blocks masks and the block
// size table the greedy cost kernel streams. The library is immutable, so
// this happens once per evaluator.
func (e *Evaluator) ensureBlockIndex() {
	if e.blockMasks != nil {
		return
	}
	lib := e.ins.Library()
	I, J := e.ins.NumModels(), lib.NumBlocks()
	e.blockWords = bitset.Words(J)
	e.blockMasks = make([]uint64, I*e.blockWords)
	for i := 0; i < I; i++ {
		mask := bitset.Set(e.blockMasks[i*e.blockWords : (i+1)*e.blockWords])
		for _, j := range lib.ModelBlocks(i) {
			mask.Set(j)
		}
	}
	e.blockSizes = make([]int64, J)
	for j := 0; j < J; j++ {
		e.blockSizes[j] = lib.BlockSize(j)
	}
}

// maskMass sums p_{k,i} over the users in mask \ excluded, in ascending
// user order (matching the pre-bitset scalar loop exactly, so the packed
// evaluator preserves bit-identical floating-point sums). excluded may be
// nil. Written as a manual word loop: this is the greedy algorithms' inner
// kernel and must not pay a closure call per bit.
func (e *Evaluator) maskMass(i int, mask, excluded bitset.Set) float64 {
	e.syncProbs()
	probs := e.probT[i*e.ins.NumUsers():]
	var sum float64
	for w, word := range mask {
		if excluded != nil {
			word &^= excluded[w]
		}
		for ; word != 0; word &= word - 1 {
			sum += probs[w<<6|mbits.TrailingZeros64(word)]
		}
	}
	return sum
}

// Instance returns the bound problem instance.
func (e *Evaluator) Instance() *scenario.Instance { return e.ins }

// checkDims verifies the placement matches the instance.
func (e *Evaluator) checkDims(p *Placement) error {
	if p == nil {
		return fmt.Errorf("placement: placement is required")
	}
	if p.numServers != e.ins.NumServers() || p.numModels != e.ins.NumModels() {
		return fmt.Errorf("placement: placement dims %dx%d, instance %dx%d",
			p.numServers, p.numModels, e.ins.NumServers(), e.ins.NumModels())
	}
	return nil
}

// HitRatio computes U(X) (eq. 2) under the average channel: the fraction of
// request mass servable from edge caches within QoS deadlines. Request
// (k,i) is a hit iff the instance's server mask intersects the placement's
// server column for model i — one AND per request instead of an M-loop.
func (e *Evaluator) HitRatio(p *Placement) (float64, error) {
	if err := e.checkDims(p); err != nil {
		return 0, err
	}
	K, I := e.ins.NumUsers(), e.ins.NumModels()
	if e.ins.ServerMaskWords() == 1 {
		return e.packedHit(p, e.ins.PackedServerMasks()) / e.ins.TotalMass(), nil
	}
	var hit float64
	for k := 0; k < K; k++ {
		for i := 0; i < I; i++ {
			if bitset.Intersects(e.ins.ServerMask(k, i), p.Servers(i)) {
				hit += e.ins.Prob(k, i)
			}
		}
	}
	return hit / e.ins.TotalMass(), nil
}

// packedHit is the single-word (M ≤ 64) evaluator kernel shared by
// HitRatio and HitRatioWithReach: masks holds one word per (user, model)
// request, user-major ([k*I+i]), and request (k,i) counts iff its word
// intersects the placement's server column.
func (e *Evaluator) packedHit(p *Placement, masks []uint64) float64 {
	K, I := e.ins.NumUsers(), e.ins.NumModels()
	cols := p.cols
	var hit float64
	for k := 0; k < K; k++ {
		row := masks[k*I : k*I+I]
		probs := e.ins.ProbRow(k)
		for i, w := range row {
			if w&cols[i] != 0 {
				hit += probs[i]
			}
		}
	}
	return hit
}

// HitRatioWithReach computes U(X) under an externally supplied word-packed
// reachability indicator, e.g. one Rayleigh-fading realization from
// Instance.FadedReach.
func (e *Evaluator) HitRatioWithReach(p *Placement, reach *scenario.Reach) (float64, error) {
	if err := e.checkDims(p); err != nil {
		return 0, err
	}
	if reach == nil {
		return 0, fmt.Errorf("placement: reach indicator is required")
	}
	if rm, rk, ri := reach.Dims(); rm != e.ins.NumServers() || rk != e.ins.NumUsers() || ri != e.ins.NumModels() {
		return 0, fmt.Errorf("placement: reach dims %dx%dx%d, instance %dx%dx%d",
			rm, rk, ri, e.ins.NumServers(), e.ins.NumUsers(), e.ins.NumModels())
	}
	K, I := e.ins.NumUsers(), e.ins.NumModels()
	if reach.Words() == 1 {
		return e.packedHit(p, reach.PackedServerMasks()) / e.ins.TotalMass(), nil
	}
	var hit float64
	for k := 0; k < K; k++ {
		for i := 0; i < I; i++ {
			if bitset.Intersects(reach.ServerMask(k, i), p.Servers(i)) {
				hit += e.ins.Prob(k, i)
			}
		}
	}
	return hit / e.ins.TotalMass(), nil
}

// ServerStorage computes g_m(X) (eq. 7): the deduplicated bytes server m
// needs for its cached models (shared blocks stored once).
func (e *Evaluator) ServerStorage(p *Placement, m int) (int64, error) {
	if err := e.checkDims(p); err != nil {
		return 0, err
	}
	if m < 0 || m >= p.numServers {
		return 0, fmt.Errorf("placement: server %d out of range [0,%d)", m, p.numServers)
	}
	return e.ins.Library().BlocksUnion(p.ModelsOn(m), nil), nil
}

// CheckFeasible verifies g_m(X) ≤ Q_m for every server. capacities must
// have one entry per server.
func (e *Evaluator) CheckFeasible(p *Placement, capacities []int64) error {
	if err := e.checkDims(p); err != nil {
		return err
	}
	if len(capacities) != p.numServers {
		return fmt.Errorf("placement: %d capacities for %d servers", len(capacities), p.numServers)
	}
	for m := 0; m < p.numServers; m++ {
		used, err := e.ServerStorage(p, m)
		if err != nil {
			return err
		}
		if used > capacities[m] {
			return fmt.Errorf("placement: server %d uses %d bytes > capacity %d", m, used, capacities[m])
		}
	}
	return nil
}

// UniformCapacities returns a capacity vector with the same Q for every
// server (the paper uses identical storage capacities, §VII-A).
func UniformCapacities(numServers int, q int64) []int64 {
	caps := make([]int64, numServers)
	for m := range caps {
		caps[m] = q
	}
	return caps
}
