package placement

import "sort"

// PopularityCaching is the classic uncoordinated content-placement
// baseline: every edge server independently caches the globally most
// popular models that fit, charging full model sizes (no parameter-block
// deduplication) and ignoring what other servers cache. Traditional
// popularity-based placement behaves this way, and it brackets the paper's
// Independent Caching baseline from below (coordinated greedy brackets it
// from above); see DESIGN.md.
func PopularityCaching(e *Evaluator, capacities []int64) (*Placement, error) {
	s, err := newGreedyState(e, capacities, false)
	if err != nil {
		return nil, err
	}
	ins := e.Instance()
	I := ins.NumModels()

	// Global popularity: total request mass per model.
	popularity := make([]float64, I)
	for k := 0; k < ins.NumUsers(); k++ {
		for i := 0; i < I; i++ {
			popularity[i] += ins.Prob(k, i)
		}
	}
	order := make([]int, I)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if popularity[order[a]] != popularity[order[b]] {
			return popularity[order[a]] > popularity[order[b]]
		}
		return order[a] < order[b]
	})

	for m := 0; m < ins.NumServers(); m++ {
		for _, i := range order {
			if s.fits(m, i) {
				s.commit(m, i)
			}
		}
	}
	return s.placed, nil
}

// PopularityAlgorithm wraps PopularityCaching as an Algorithm.
type PopularityAlgorithm struct{}

var _ Algorithm = PopularityAlgorithm{}

// Name implements Algorithm.
func (PopularityAlgorithm) Name() string { return "Popularity Caching" }

// Place implements Algorithm.
func (PopularityAlgorithm) Place(e *Evaluator, capacities []int64) (*Placement, error) {
	return PopularityCaching(e, capacities)
}
