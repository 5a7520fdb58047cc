package placement

import (
	"testing"

	"trimcaching/internal/bitset"
	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// reviseEvalFixture builds an instance over an aliased workload plus the
// parent supplying real rows (mirrors the scenario package's fixture).
func reviseEvalFixture(t *testing.T) (*scenario.Instance, *workload.Workload, *workload.Workload, []geom.Point) {
	t.Helper()
	src := rng.New(77)
	lib, err := libgen.GenerateLoRA(libgen.DefaultLoRAConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	area, err := geom.NewArea(700)
	if err != nil {
		t.Fatal(err)
	}
	const K = 15
	servers := area.SamplePoints(src.Split("servers"), 4)
	users := area.SamplePoints(src.Split("users"), K)
	wcfg := wireless.DefaultConfig()
	wcfg.BackhaulBps = 1e9
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	parent, err := workload.Generate(K, lib.NumModels(), wl, src.Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := workload.NewAliased(K, lib.NumModels())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < K; k++ {
		if err := aliased.SetUserRows(k, parent.ProbRow(k), parent.DeadlineRow(k), parent.InferRow(k)); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := topology.New(area, servers, users, wcfg.CoverageRadiusM)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := scenario.New(topo, lib, aliased, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	return ins, aliased, parent, users
}

// TestEvaluatorRevisionDelta revises workload rows across several deltas
// and pins the delta-tracking evaluator's gains and lazy-greedy solutions
// bit-identical to a fresh evaluator on the mutated instance. The first
// rounds revise in one delta each; the last two apply two and then three
// deltas back to back — a park, a bind and a mass-only swap — before the
// next BaseGain or Repair call, so the probability table must catch up
// with every revision at once when the next solve reads it.
func TestEvaluatorRevisionDelta(t *testing.T) {
	ins, aliased, parent, users := reviseEvalFixture(t)
	eval, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	caps := UniformCapacities(ins.NumServers(), 8<<30)
	alg := GenAlgorithm{Options: GenOptions{Lazy: true}}
	prev, err := alg.Place(eval, caps)
	if err != nil {
		t.Fatal(err)
	}
	M, I := ins.NumServers(), ins.NumModels()
	zero := make([]float64, I)
	walk := rng.New(12)
	area := ins.Topology().Area()
	pos := append([]geom.Point(nil), users...)

	// revision is one ReviseUsers call: the row swaps made just before it
	// and the users it revises in full or in mass only.
	type revision struct {
		swap              func() error
		revised, massOnly []int
	}
	for round, deltas := range []int{1, 1, 1, 2, 3} {
		var moved []int
		var movedPos []geom.Point
		for k := round % 2; k < len(pos); k += 2 {
			pos[k] = area.SamplePoint(walk)
			moved = append(moved, k)
			movedPos = append(movedPos, pos[k])
		}
		park := (1 + 4*round) % len(pos)
		bind := (6 + round) % len(pos)
		if park == bind {
			bind = (bind + 1) % len(pos)
		}
		donor := (bind + 5) % len(pos)
		flip := (11 + round) % len(pos)
		for flip == park || flip == bind {
			flip = (flip + 1) % len(pos)
		}
		parkRows := func() error { return aliased.SetUserRows(park, zero, zero, zero) }
		bindRows := func() error {
			return aliased.SetUserRows(bind, parent.ProbRow(donor), parent.DeadlineRow(donor), parent.InferRow(donor))
		}
		// The mass-only swap surges the flipped user's demand: every user
		// shares one popularity row, so another user's row would change
		// nothing.
		surge := make([]float64, I)
		for i, p := range parent.ProbRow(flip) {
			surge[i] = 1.5 * p
		}
		var calls []revision
		switch deltas {
		case 1:
			calls = []revision{{func() error {
				if err := parkRows(); err != nil {
					return err
				}
				return bindRows()
			}, []int{park, bind}, nil}}
		default:
			calls = []revision{{parkRows, []int{park}, nil}, {bindRows, []int{bind}, nil}}
			if deltas == 3 {
				calls = append(calls, revision{func() error { return aliased.SetUserProbRow(flip, surge) }, nil, []int{flip}})
			}
		}
		pairs := bitset.New(M * I)
		for j, c := range calls {
			if err := c.swap(); err != nil {
				t.Fatal(err)
			}
			var mv []int
			var mp []geom.Point
			if j == 0 {
				mv, mp = moved, movedPos
			}
			delta, err := ins.ReviseUsers(c.revised, c.massOnly, mv, mp)
			if err != nil {
				t.Fatal(err)
			}
			if err := eval.ApplyDelta(delta); err != nil {
				t.Fatal(err)
			}
			pairs.Or(delta.Pairs)
		}
		freshEval, err := NewEvaluator(ins)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < M; m++ {
			for i := 0; i < I; i++ {
				if got, want := eval.BaseGain(m, i), freshEval.BaseGain(m, i); got != want {
					t.Fatalf("round %d (%d deltas): base gain (%d,%d) %v, fresh %v", round, deltas, m, i, got, want)
				}
			}
		}
		warm, err := alg.Repair(eval, caps, prev, &scenario.Delta{Gen: ins.Generation(), Pairs: pairs})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := alg.Place(freshEval, caps)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < M; m++ {
			if !warm.Models(m).Equal(cold.Models(m)) {
				t.Fatalf("round %d (%d deltas): warm placement differs from cold on server %d", round, deltas, m)
			}
		}
		prev = warm
	}
}

// TestEvaluatorMissedRevision drops a revision delta on the floor and
// checks the safety valve: the next solve-path mass computation sees the
// rebuilt probability table, matching a fresh evaluator.
func TestEvaluatorMissedRevision(t *testing.T) {
	ins, aliased, _, _ := reviseEvalFixture(t)
	eval, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, ins.NumModels())
	if err := aliased.SetUserRows(0, zero, zero, zero); err != nil {
		t.Fatal(err)
	}
	if _, err := ins.ReviseUsers([]int{0}, nil, nil, nil); err != nil {
		t.Fatal(err) // delta intentionally discarded
	}
	fresh, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < ins.NumServers(); m++ {
		for i := 0; i < ins.NumModels(); i++ {
			if got, want := eval.BaseGain(m, i), fresh.BaseGain(m, i); got != want {
				t.Fatalf("gain (%d,%d) %v after missed revision, fresh %v", m, i, got, want)
			}
		}
	}
}
