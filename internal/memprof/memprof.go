// Package memprof defines the memory-accounting seam shared by the layers
// of the dynamics stack. Each layer reports the heap bytes it owns, broken
// down by component, and aggregation is plain addition — the shard engine's
// footprint is the sum of its cells plus the coordinator state. The numbers
// are computed from slice capacities (what the component retains, not what
// it momentarily uses), so they answer the capacity-planning question "how
// many bytes does this configuration pin per user."
package memprof

// Footprint is a by-component breakdown of owned heap bytes. Fields carry
// JSON tags so benchmark reports can emit a footprint verbatim.
type Footprint struct {
	// Reach counts both packed reachability orientations (server masks and
	// the model-major inverted index).
	Reach int64 `json:"reach_bytes"`
	// Rank counts the threshold rank index (a uint16 model order per
	// user and direction; the thresholds it sorts count under Rates).
	Rank int64 `json:"rank_bytes"`
	// Rates counts the average-rate table, relay rates, and QoS thresholds.
	Rates int64 `json:"rate_bytes"`
	// Workload counts probability/deadline/inference tables; aliased tables
	// (shard cells sharing the coordinator's rows) count headers only.
	Workload int64 `json:"workload_bytes"`
	// Topology counts position vectors and both association tables.
	Topology int64 `json:"topology_bytes"`
	// Evaluator counts placement-evaluator state: the transposed
	// probability table, gain memos, commit heap, and block masks.
	Evaluator int64 `json:"evaluator_bytes"`
	// Measurement counts fading-measurement state: per-worker kernel
	// scratch, realization sources, and result buffers.
	Measurement int64 `json:"measurement_bytes"`
	// Scratch counts reusable update/handoff buffers: delta scratch, move
	// scratch, membership plans, ghost lists.
	Scratch int64 `json:"scratch_bytes"`
	// Coordinator counts shard-coordinator state: the global instance,
	// ownership maps, walk state, and per-cell reference lists.
	Coordinator int64 `json:"coordinator_bytes"`
}

// Total sums every component.
func (f Footprint) Total() int64 {
	return f.Reach + f.Rank + f.Rates + f.Workload + f.Topology +
		f.Evaluator + f.Measurement + f.Scratch + f.Coordinator
}

// Add accumulates g into f component-wise.
func (f *Footprint) Add(g Footprint) {
	f.Reach += g.Reach
	f.Rank += g.Rank
	f.Rates += g.Rates
	f.Workload += g.Workload
	f.Topology += g.Topology
	f.Evaluator += g.Evaluator
	f.Measurement += g.Measurement
	f.Scratch += g.Scratch
	f.Coordinator += g.Coordinator
}
