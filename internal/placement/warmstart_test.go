package placement

import (
	"testing"

	"trimcaching/internal/libgen"
	"trimcaching/internal/mobility"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// warmWalk builds an instance, an evaluator bound to it, and a mobility
// population for driving incremental updates.
func warmWalk(t *testing.T, seed uint64) (*scenario.Instance, *Evaluator, *mobility.Population, *rng.Source) {
	t.Helper()
	lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(5), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed + 3)
	w := wireless.DefaultConfig()
	gen := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 1000, NumServers: 6, NumUsers: 12, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	ins, err := scenario.Generate(lib, gen, src.Split("instance"))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := mobility.NewPopulation(ins.Topology().Area(), ins.Topology().UserPositions(), src.Split("mobility"))
	if err != nil {
		t.Fatal(err)
	}
	return ins, eval, pop, src.Split("walk")
}

func placementsEqual(a, b *Placement) bool {
	if a.NumServers() != b.NumServers() || a.NumModels() != b.NumModels() {
		return false
	}
	for m := 0; m < a.NumServers(); m++ {
		for i := 0; i < a.NumModels(); i++ {
			if a.Has(m, i) != b.Has(m, i) {
				return false
			}
		}
	}
	return true
}

// TestWarmStartMatchesColdSolve is the placement half of the tentpole's
// golden equivalence: after incremental instance updates, a warm-started
// Repair (reused evaluator, delta-invalidated gain memo, previous
// placement) must reproduce a cold solve (fresh evaluator on the same
// instance) exactly, for every warm-start-capable algorithm.
func TestWarmStartMatchesColdSolve(t *testing.T) {
	algs := []WarmStartAlgorithm{
		GenAlgorithm{Options: GenOptions{Lazy: true}},
		GenAlgorithm{},
		IndependentAlgorithm{},
		SpecAlgorithm{Options: DefaultSpecOptions()},
	}
	for _, alg := range algs {
		ins, eval, pop, walk := warmWalk(t, 23)
		caps := UniformCapacities(ins.NumServers(), 1<<30)
		prev, err := alg.Place(eval, caps)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		all := make([]int, ins.NumUsers())
		for k := range all {
			all[k] = k
		}
		for cp := 0; cp < 3; cp++ {
			for s := 0; s < 120; s++ {
				if err := pop.Step(5, walk); err != nil {
					t.Fatal(err)
				}
			}
			delta, err := ins.ReviseUsers(nil, nil, all, pop.Positions())
			if err != nil {
				t.Fatal(err)
			}
			warm, err := alg.Repair(eval, caps, prev, delta)
			if err != nil {
				t.Fatalf("%s: repair: %v", alg.Name(), err)
			}
			coldEval, err := NewEvaluator(ins)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := alg.Place(coldEval, caps)
			if err != nil {
				t.Fatalf("%s: cold: %v", alg.Name(), err)
			}
			if !placementsEqual(warm, cold) {
				t.Fatalf("%s: checkpoint %d: warm-started repair differs from cold solve", alg.Name(), cp)
			}
			prev = warm
		}
	}
}

// TestRepairAfterInterleavedBaseGainSweep pins the persistent commit
// heap's staleness tracking against interleaved memo consumers: after
// ApplyDelta, another solver sharing the evaluator (here a Spec solve,
// and an explicit full BaseGain sweep) revalidates the invalidated memo
// entries before the lazy solver runs. The heap must still re-key the
// delta's pairs — staleness is tracked separately from memo validity — or
// the warm Repair diverges from a cold solve.
func TestRepairAfterInterleavedBaseGainSweep(t *testing.T) {
	for _, seed := range []uint64{20, 23, 29} {
		ins, eval, pop, walk := warmWalk(t, seed)
		caps := UniformCapacities(ins.NumServers(), 1<<30)
		alg := GenAlgorithm{Options: GenOptions{Lazy: true}}
		prev, err := alg.Place(eval, caps)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, ins.NumUsers())
		for k := range all {
			all[k] = k
		}
		for cp := 0; cp < 2; cp++ {
			for s := 0; s < 120; s++ {
				if err := pop.Step(5, walk); err != nil {
					t.Fatal(err)
				}
			}
			delta, err := ins.ReviseUsers(nil, nil, all, pop.Positions())
			if err != nil {
				t.Fatal(err)
			}
			if err := eval.ApplyDelta(delta); err != nil {
				t.Fatal(err)
			}
			// Interleaved consumers revalidate the memo entries the delta
			// just dropped.
			if _, err := (SpecAlgorithm{Options: DefaultSpecOptions()}).Place(eval, caps); err != nil {
				t.Fatal(err)
			}
			for m := 0; m < ins.NumServers(); m++ {
				for i := 0; i < ins.NumModels(); i++ {
					eval.BaseGain(m, i)
				}
			}
			warm, err := alg.Repair(eval, caps, prev, delta)
			if err != nil {
				t.Fatal(err)
			}
			coldEval, err := NewEvaluator(ins)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := alg.Place(coldEval, caps)
			if err != nil {
				t.Fatal(err)
			}
			if !placementsEqual(warm, cold) {
				t.Fatalf("seed %d checkpoint %d: repair after interleaved BaseGain sweep differs from cold solve", seed, cp)
			}
			prev = warm
		}
	}
}

// TestRepairNothingChangedFastPath pins the short-circuit: when the delta
// reports no reachability change, Repair returns the previous placement
// without re-solving.
func TestRepairNothingChangedFastPath(t *testing.T) {
	ins, eval, _, _ := warmWalk(t, 31)
	caps := UniformCapacities(ins.NumServers(), 1<<30)
	alg := GenAlgorithm{Options: GenOptions{Lazy: true}}
	prev, err := alg.Place(eval, caps)
	if err != nil {
		t.Fatal(err)
	}
	// Re-assert current positions: a genuine delta with empty Pairs.
	all := make([]int, ins.NumUsers())
	for k := range all {
		all[k] = k
	}
	delta, err := ins.ReviseUsers(nil, nil, all, ins.Topology().UserPositions())
	if err != nil {
		t.Fatal(err)
	}
	if delta.Pairs.Any() {
		t.Fatal("no-op move produced a non-empty delta")
	}
	got, err := alg.Repair(eval, caps, prev, delta)
	if err != nil {
		t.Fatal(err)
	}
	if got != prev {
		t.Fatal("empty delta must return the previous placement itself")
	}
}

// TestBaseGainTracksGeneration checks the memo's safety valve: mutating
// the instance without ApplyDelta must drop the memo (generation
// mismatch), never serve stale gains.
func TestBaseGainTracksGeneration(t *testing.T) {
	ins, eval, pop, walk := warmWalk(t, 47)
	// Warm the memo.
	M, I := ins.NumServers(), ins.NumModels()
	before := make([]float64, M*I)
	for m := 0; m < M; m++ {
		for i := 0; i < I; i++ {
			before[m*I+i] = eval.BaseGain(m, i)
		}
	}
	for s := 0; s < 240; s++ {
		if err := pop.Step(5, walk); err != nil {
			t.Fatal(err)
		}
	}
	all := make([]int, ins.NumUsers())
	for k := range all {
		all[k] = k
	}
	if _, err := ins.ReviseUsers(nil, nil, all, pop.Positions()); err != nil {
		t.Fatal(err)
	}
	// No ApplyDelta: BaseGain must still agree with a fresh evaluator.
	fresh, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	var diffs int
	for m := 0; m < M; m++ {
		for i := 0; i < I; i++ {
			want := fresh.BaseGain(m, i)
			if got := eval.BaseGain(m, i); got != want {
				t.Fatalf("BaseGain(%d,%d) = %v, fresh evaluator %v", m, i, got, want)
			}
			if want != before[m*I+i] {
				diffs++
			}
		}
	}
	if diffs == 0 {
		t.Fatal("twenty minutes of walking changed no base gain; test is vacuous")
	}
}
