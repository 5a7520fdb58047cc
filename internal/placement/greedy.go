package placement

import (
	"fmt"
	"math"
	mbits "math/bits"

	"trimcaching/internal/bitset"
)

// greedyState tracks the incremental quantities shared by the greedy
// algorithms: request coverage, per-server cached blocks, and storage use.
// Coverage and block bookkeeping are word-packed: a marginal gain is one
// AND-NOT sweep over a user mask (the instance's inverted index
// model → reachable users per server) instead of a K-element rescan.
type greedyState struct {
	e          *Evaluator
	caps       []int64
	dedup      bool // true: parameter-sharing storage (eq. 7); false: independent caching
	placed     *Placement
	userWords  int
	covered    []uint64 // covered[i*userWords+w], bit k: request (k,i) already servable
	blockWords int
	blockOn    []uint64 // blockOn[m*blockWords+w], bit j: server m caches block j (dedup mode)
	used       []int64  // used[m]: bytes cached on server m
	pops       int      // heap entries runLazyGreedy popped: the solve's unit of work
}

func newGreedyState(e *Evaluator, caps []int64, dedup bool) (*greedyState, error) {
	ins := e.Instance()
	if len(caps) != ins.NumServers() {
		return nil, fmt.Errorf("placement: %d capacities for %d servers", len(caps), ins.NumServers())
	}
	for m, q := range caps {
		if q < 0 {
			return nil, fmt.Errorf("placement: negative capacity %d for server %d", q, m)
		}
	}
	s := &greedyState{
		e:         e,
		caps:      caps,
		dedup:     dedup,
		placed:    NewPlacement(ins.NumServers(), ins.NumModels()),
		userWords: ins.UserMaskWords(),
		used:      make([]int64, ins.NumServers()),
	}
	s.covered = make([]uint64, ins.NumModels()*s.userWords)
	if dedup {
		s.blockWords = bitset.Words(ins.Library().NumBlocks())
		s.blockOn = make([]uint64, ins.NumServers()*s.blockWords)
		e.ensureBlockIndex()
	}
	return s, nil
}

// coveredMask returns the packed set of users whose request for model i is
// already servable within QoS.
func (s *greedyState) coveredMask(i int) bitset.Set {
	return bitset.Set(s.covered[i*s.userWords : (i+1)*s.userWords])
}

// blockMask returns the packed set of blocks cached on server m.
func (s *greedyState) blockMask(m int) bitset.Set {
	return bitset.Set(s.blockOn[m*s.blockWords : (m+1)*s.blockWords])
}

// gain returns the marginal cache-hit mass of adding x_{m,i}:
// U(X ∪ {x_{m,i}}) − U(X), unnormalized (eq. 2 numerator). While nothing
// covers model i yet the value is exactly the evaluator's memoized
// u0(m,i): the same sum over the same bits in the same order, since the
// excluded words are all zero.
func (s *greedyState) gain(m, i int) float64 {
	if s.placed.Has(m, i) {
		return 0
	}
	cov := s.coveredMask(i)
	if !cov.Any() {
		return s.e.BaseGain(m, i)
	}
	return s.e.maskMass(i, s.e.Instance().UserMask(m, i), cov)
}

// costFloor returns a lower bound on cost(m, i) for every model i not yet
// on server m: min_i SpecificSize(i) with deduplication, since a model's
// unshared blocks reach a server only by committing that model there, and
// min_i D_i without.
func (s *greedyState) costFloor() int64 {
	lib := s.e.Instance().Library()
	floor := int64(math.MaxInt64)
	for i := 0; i < lib.NumModels(); i++ {
		c := lib.ModelSize(i)
		if s.dedup {
			c = lib.SpecificSize(i)
		}
		floor = min(floor, c)
	}
	return floor
}

// cost returns the incremental storage of adding model i to server m:
// g_m(X_m ∪ {x_{m,i}}) − g_m(X_m) with deduplication, or D_i without.
// The dedup path walks the word-packed missing-block set (model blocks
// AND-NOT cached blocks) instead of testing every block ID individually;
// the sum is over the same blocks in the same ascending order, and int64
// addition is order-free anyway.
func (s *greedyState) cost(m, i int) int64 {
	if !s.dedup {
		return s.e.Instance().Library().ModelSize(i)
	}
	on := s.blockOn[m*s.blockWords:]
	mask := s.e.blockMasks[i*s.blockWords : (i+1)*s.blockWords]
	sizes := s.e.blockSizes
	var c int64
	for w, v := range mask {
		for miss := v &^ on[w]; miss != 0; miss &= miss - 1 {
			c += sizes[w<<6|mbits.TrailingZeros64(miss)]
		}
	}
	return c
}

// fits reports whether adding model i to server m respects Q_m.
func (s *greedyState) fits(m, i int) bool {
	return s.used[m]+s.cost(m, i) <= s.caps[m]
}

// commit places model i on server m and updates coverage and storage.
func (s *greedyState) commit(m, i int) {
	ins := s.e.Instance()
	s.used[m] += s.cost(m, i)
	if s.dedup {
		on := s.blockMask(m)
		for _, j := range ins.Library().ModelBlocks(i) {
			on.Set(j)
		}
	}
	s.placed.Set(m, i)
	s.coveredMask(i).Or(ins.UserMask(m, i))
}

// gainTolerance treats marginal gains at or below this value as zero:
// placing such a model cannot change the hit ratio materially and only
// burns storage.
const gainTolerance = 1e-15

// runNaiveGreedy repeatedly commits the feasible (m,i) with the largest
// marginal gain, rescanning all candidates each step (Algorithm 3 verbatim).
func runNaiveGreedy(s *greedyState) {
	ins := s.e.Instance()
	M, I := ins.NumServers(), ins.NumModels()
	for {
		bestGain := gainTolerance
		bestM, bestI := -1, -1
		for m := 0; m < M; m++ {
			for i := 0; i < I; i++ {
				if s.placed.Has(m, i) {
					continue
				}
				g := s.gain(m, i)
				if g > bestGain && s.fits(m, i) {
					bestGain, bestM, bestI = g, m, i
				}
			}
		}
		if bestM < 0 {
			return
		}
		s.commit(bestM, bestI)
	}
}

// candidate is a lazy-greedy heap entry; key is a stale upper bound on the
// true marginal gain (valid because U is submodular: gains only shrink
// within one solve).
type candidate struct {
	key  float64
	m, i int32
}

// candLess orders candidates by descending key, ties broken by ascending
// (m, i). Because (m, i) is unique per entry this is a strict total order,
// so the pop sequence of a heap is determined by its entry set alone — any
// two heaps holding the same entries pop identically regardless of their
// internal array layout. That property is what lets the evaluator's
// persistent commit heap (see Evaluator.commitHeap) hand solves a
// pre-ordered copy instead of rebuilding from scratch.
func candLess(a, b candidate) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.m != b.m {
		return a.m < b.m
	}
	return a.i < b.i
}

// candidateHeap is a hand-rolled binary heap under candLess (largest key
// first). container/heap would route every comparison and swap through an
// interface — and box every Push into an `any`, allocating per push — on
// what profiling shows is the solver's hottest loop, so the sift
// operations are spelled out with value moves instead.
type candidateHeap []candidate

func (h candidateHeap) siftDown(i int) {
	n := len(h)
	c := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && candLess(h[r], h[l]) {
			l = r
		}
		if !candLess(h[l], c) {
			break
		}
		h[i] = h[l]
		i = l
	}
	h[i] = c
}

func (h candidateHeap) siftUp(i int) {
	c := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(c, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
}

// init establishes the heap invariant over an arbitrary entry order.
func (h candidateHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *candidateHeap) push(c candidate) {
	*h = append(*h, c)
	h.siftUp(len(*h) - 1)
}

func (h *candidateHeap) pop() candidate {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		old[:n].siftDown(0)
	}
	return top
}

// runLazyGreedy is the accelerated variant of Algorithm 3 using lazy
// evaluation (Minoux). The starting heap — every pair keyed by its
// empty-placement gain u0(m,i) — comes from the evaluator's persistent
// commit heap, which warm starts carry across incremental instance
// updates (Evaluator.commitHeap).
//
// Certified candidates whose storage does not fit are dropped permanently:
// fits() tests used[m] + cost(m,i), which telescopes to exactly
// g_m(X_m ∪ {i}) — the deduplicated size of the server's block union with
// model i — and a block union only grows as commits accrue, so a
// candidate that does not fit now can never fit later. (An earlier
// incarnation parked unfit candidates for retry after every commit, which
// at LoRA scale re-pushed thousands of dead candidates per commit and
// dominated the solve; the exact-placement-equality tests pin that
// dropping them changes nothing.)
//
// The loop ends once no server is open. Server m is open while the heap
// still holds one of its candidates and its free room caps[m] − used[m] is
// at least costFloor. A closed server can take no further commit — every
// candidate left on it costs more than its room, and room only shrinks —
// so once all are closed the placement is final, and the remaining pops
// could only re-key or drop entries of the solve's working copy. With a
// floor of 0 the exit never fires.
func runLazyGreedy(s *greedyState) {
	h := s.e.commitHeap()
	left := make([]int32, len(s.used)) // left[m]: server m's entries in h
	for _, c := range h {
		left[c.m]++
	}
	floor := s.costFloor()
	isOpen := func(m int) bool { return left[m] > 0 && s.caps[m]-s.used[m] >= floor }
	open := 0
	for m := range left {
		if isOpen(m) {
			open++
		}
	}
	pops := 0
	for open > 0 {
		c := h.pop()
		pops++
		m, i := int(c.m), int(c.i)
		g := s.gain(m, i)
		if g > gainTolerance && len(h) > 0 && g < h[0].key {
			c.key = g
			h.push(c)
			continue
		}
		// The entry leaves the heap: dropped when its gain is gone (gains
		// never grow back), otherwise certified — g is the maximum true
		// gain among heap candidates — and committed if it fits.
		was := isOpen(m)
		left[m]--
		if g > gainTolerance && s.fits(m, i) {
			s.commit(m, i)
		}
		if was && !isOpen(m) {
			open--
		}
	}
	s.pops = pops
}

// GenOptions configures TrimCaching Gen.
type GenOptions struct {
	// Lazy enables lazy (Minoux-accelerated) evaluation. Both variants
	// produce placements with identical hit ratios.
	Lazy bool
}

// TrimCachingGen runs Algorithm 3: greedily place the (server, model) pair
// with the largest marginal cache-hit gain whose deduplicated storage still
// fits, until no feasible pair with positive gain remains.
func TrimCachingGen(e *Evaluator, capacities []int64, opts GenOptions) (*Placement, error) {
	s, err := newGreedyState(e, capacities, true)
	if err != nil {
		return nil, err
	}
	if opts.Lazy {
		runLazyGreedy(s)
	} else {
		runNaiveGreedy(s)
	}
	return s.placed, nil
}

// IndependentCaching is the baseline content-placement scheme (§VII-A):
// the same greedy loop as TrimCaching Gen but charging each model its full
// size — shared parameter blocks are not deduplicated.
func IndependentCaching(e *Evaluator, capacities []int64) (*Placement, error) {
	s, err := newGreedyState(e, capacities, false)
	if err != nil {
		return nil, err
	}
	runLazyGreedy(s)
	return s.placed, nil
}
