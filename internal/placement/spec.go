package placement

import (
	"fmt"
	"sort"

	"trimcaching/internal/bitset"
)

// SpecOptions configures TrimCaching Spec.
type SpecOptions struct {
	// Epsilon is the DP rounding parameter of Algorithm 2 (paper default
	// 0.1). Epsilon == 0 solves each per-combination knapsack exactly
	// (branch-and-bound), as in the paper's Fig. 6 optimality study.
	Epsilon float64
	// MaxCombos bounds the shared-block combination enumeration; beyond it
	// TrimCachingSpec fails with ErrComboExplosion (the general-case regime
	// where Spec is exponential, §VI). 0 means the default of 1<<20.
	MaxCombos int
}

// DefaultSpecOptions returns the paper's defaults (ε = 0.1).
func DefaultSpecOptions() SpecOptions {
	return SpecOptions{Epsilon: 0.1, MaxCombos: 1 << 20}
}

// TrimCachingSpec runs Algorithm 1: decompose P1.1 into one sub-problem per
// edge server (P2.1m), solve them in server order with the DP-based rounding
// of Algorithm 2, and exclude already-served requests via the I2 indicator
// (eq. 11). Under the special case (a small fixed number of shared blocks)
// the result is a (1-ε)/2 approximation of the optimum (Theorem 2).
func TrimCachingSpec(e *Evaluator, capacities []int64, opts SpecOptions) (*Placement, error) {
	if !(opts.Epsilon >= 0 && opts.Epsilon <= 1) {
		return nil, fmt.Errorf("placement: epsilon must be in [0,1], got %v", opts.Epsilon)
	}
	maxCombos := opts.MaxCombos
	if maxCombos == 0 {
		maxCombos = 1 << 20
	}
	ins := e.Instance()
	if len(capacities) != ins.NumServers() {
		return nil, fmt.Errorf("placement: %d capacities for %d servers", len(capacities), ins.NumServers())
	}
	for m, q := range capacities {
		if q < 0 {
			return nil, fmt.Errorf("placement: negative capacity %d for server %d", q, m)
		}
	}

	lib := ins.Library()
	shared := newSharedIndex(lib)
	M, I := ins.NumServers(), ins.NumModels()
	uw := ins.UserMaskWords()
	placed := NewPlacement(M, I)
	// I2 bookkeeping: covered[i*uw..] packs the users whose request for
	// model i is already served by an earlier server.
	covered := make([]uint64, I*uw)
	scratch := &dpScratch{}

	for m := 0; m < M; m++ {
		// u(m,i) with the I2 exclusion (eq. 14): mass this server can newly
		// serve by caching model i — one AND-NOT sweep over the inverted
		// index instead of a K-element rescan. While nothing is excluded yet
		// (no earlier server covered model i) the value is exactly the
		// evaluator's memoized u0(m,i), bit-identical since the excluded
		// words are all zero.
		u := make([]float64, I)
		var eligible []int
		for i := 0; i < I; i++ {
			if cov := bitset.Set(covered[i*uw : (i+1)*uw]); !cov.Any() {
				u[i] = e.BaseGain(m, i)
			} else {
				u[i] = e.maskMass(i, ins.UserMask(m, i), cov)
			}
			if u[i] > gainTolerance {
				eligible = append(eligible, i)
			}
		}
		if len(eligible) == 0 {
			continue
		}

		combos, err := enumerateCombos(shared, eligible, capacities[m], maxCombos)
		if err != nil {
			return nil, fmt.Errorf("placement: server %d: %w", m, err)
		}

		var bestModels []int
		bestValue := 0.0
		items := make([]knapsackItem, 0, len(eligible))
		for _, c := range combos {
			// I_N: eligible models whose shared footprint fits inside N;
			// they enter the knapsack at their specific size D_N(i)
			// (eq. 13).
			items = items[:0]
			var ubValue float64
			for _, i := range eligible {
				if shared.footprint(i).SubsetOf(c.blocks) {
					items = append(items, knapsackItem{id: i, value: u[i], weight: lib.SpecificSize(i)})
					ubValue += u[i]
				}
			}
			if len(items) == 0 || ubValue <= bestValue {
				continue
			}
			capRem := capacities[m] - c.size
			// Fractional-relaxation upper bound: skip combos that cannot
			// beat the incumbent.
			if fractionalBound(items, capRem) <= bestValue {
				continue
			}
			chosen, value := solveKnapsack(items, capRem, opts.Epsilon, scratch)
			if value > bestValue {
				bestValue = value
				bestModels = chosen
			}
		}

		for _, i := range bestModels {
			placed.Set(m, i)
			bitset.Set(covered[i*uw : (i+1)*uw]).Or(ins.UserMask(m, i))
		}
	}
	return placed, nil
}

// fractionalBound returns the LP-relaxation value of the knapsack: an upper
// bound on any integral selection.
func fractionalBound(items []knapsackItem, capacity int64) float64 {
	if capacity <= 0 {
		return 0
	}
	sorted := make([]knapsackItem, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(a, b int) bool {
		// Zero-weight items first; then by decreasing value density.
		if sorted[a].weight == 0 || sorted[b].weight == 0 {
			return sorted[a].weight == 0 && sorted[b].weight != 0
		}
		return sorted[a].value*float64(sorted[b].weight) > sorted[b].value*float64(sorted[a].weight)
	})
	room := capacity
	var value float64
	for _, it := range sorted {
		if it.weight <= room {
			room -= it.weight
			value += it.value
			continue
		}
		if room > 0 && it.weight > 0 {
			value += it.value * float64(room) / float64(it.weight)
		}
		break
	}
	return value
}
