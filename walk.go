package trimcaching

import (
	"fmt"
	"math"

	"trimcaching/internal/mobility"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
)

// Walk evolves a scenario's users over time with the paper's mobility model
// (§VII-E): pedestrians, bikes, and vehicles updating speed and heading
// every slot and bouncing off the deployment-area boundary. Placements are
// decided once on the initial scenario and re-evaluated as users move.
type Walk struct {
	base *Scenario
	pop  *mobility.Population
	src  *rng.Source
}

// StartWalk creates a mobility process from the scenario's current user
// positions. Deterministic in seed.
func (s *Scenario) StartWalk(seed uint64) (*Walk, error) {
	src := rng.New(seed)
	topo := s.instance.Topology()
	pop, err := mobility.NewPopulation(topo.Area(), topo.UserPositions(), src.Split("init"))
	if err != nil {
		return nil, fmt.Errorf("trimcaching: %w", err)
	}
	return &Walk{base: s, pop: pop, src: src.Split("steps")}, nil
}

// Advance walks every user forward by seconds, in the paper's 5-second
// slots (a trailing partial slot is walked at its actual length). seconds
// must be finite and non-negative, and small enough that a slot counts:
// from 2^56 s on, seconds − 5 rounds back to seconds.
func (w *Walk) Advance(seconds float64) error {
	if !(seconds >= 0) || math.IsInf(seconds, 1) {
		return fmt.Errorf("trimcaching: walk duration must be finite and non-negative, got %v", seconds)
	}
	const slotS = 5
	for seconds > 0 {
		dt := min(slotS, seconds)
		left := seconds - dt
		if left == seconds {
			return fmt.Errorf("trimcaching: walk duration %v s is too long: a %v s slot does not shorten it", seconds, dt)
		}
		if err := w.pop.Step(dt, w.src); err != nil {
			return fmt.Errorf("trimcaching: %w", err)
		}
		seconds = left
	}
	return nil
}

// Scenario rebuilds a scenario snapshot at the walkers' current positions:
// same servers, library, workload, and storage budget; new associations and
// rates.
func (w *Walk) Scenario() (*Scenario, error) {
	topo, err := w.base.instance.Topology().WithUserPositions(w.pop.Positions())
	if err != nil {
		return nil, fmt.Errorf("trimcaching: %w", err)
	}
	ins, err := scenario.New(topo, w.base.instance.Library(), w.base.instance.Workload(), w.base.instance.Wireless())
	if err != nil {
		return nil, fmt.Errorf("trimcaching: %w", err)
	}
	eval, err := placement.NewEvaluator(ins)
	if err != nil {
		return nil, fmt.Errorf("trimcaching: %w", err)
	}
	caps := make([]int64, len(w.base.caps))
	copy(caps, w.base.caps)
	return &Scenario{instance: ins, evaluator: eval, caps: caps}, nil
}
