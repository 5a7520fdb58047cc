package trimcaching

// Cross-subsystem integration tests: these tie the public API, the
// placement algorithms and the serving simulators together on shared
// instances and assert system-level invariants.

import (
	"testing"
)

func TestObjectiveAndServingAgreeOnOrdering(t *testing.T) {
	// The closed-form objective (eq. 2) and the request-level serving
	// simulator are different measurements of the same system; algorithm
	// orderings must agree.
	lib, err := NewSpecialLibrary(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultScenarioConfig()
	cfg.CapacityBytes = 500_000_000 // binding
	sc, err := BuildScenario(lib, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	serve := DefaultServeConfig()
	serve.RequestsPerUserPerHour = 40

	type measure struct{ objective, served float64 }
	results := map[string]measure{}
	for _, name := range []string{"gen", "popularity"} {
		p, _, err := sc.Place(name)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := sc.HitRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Serve(p, serve, 13)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = measure{objective: hr, served: res.HitRatio}
	}
	if results["gen"].objective <= results["popularity"].objective {
		t.Fatalf("objective ordering violated: %+v", results)
	}
	if results["gen"].served <= results["popularity"].served {
		t.Fatalf("serving ordering violated: %+v", results)
	}
}

func TestSpecHandlesLoRALibrary(t *testing.T) {
	// A LoRA library has exactly one shared footprint (the foundation), so
	// the Spec combination set is tiny and the algorithm must be fast and
	// dominate independent caching massively under a one-model budget.
	lib, err := NewLoRALibrary(30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultScenarioConfig()
	cfg.Servers = 5
	cfg.Users = 15
	cfg.CapacityBytes = 9_000_000_000 // ~1.3 full copies, or foundation + all adapters
	cfg.DeadlineMinS = 60
	cfg.DeadlineMaxS = 180
	cfg.InferMinS = 1
	cfg.InferMaxS = 5
	sc, err := BuildScenario(lib, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	spec, specTime, err := sc.Place("spec")
	if err != nil {
		t.Fatal(err)
	}
	if specTime.Seconds() > 5 {
		t.Fatalf("Spec took %v on a single-footprint library", specTime)
	}
	ind, _, err := sc.Place("independent")
	if err != nil {
		t.Fatal(err)
	}
	hrSpec, err := sc.HitRatio(spec)
	if err != nil {
		t.Fatal(err)
	}
	hrInd, err := sc.HitRatio(ind)
	if err != nil {
		t.Fatal(err)
	}
	if hrSpec < 2*hrInd {
		t.Fatalf("LoRA regime: Spec %v should dwarf Independent %v", hrSpec, hrInd)
	}
}

func TestWalkThenServe(t *testing.T) {
	// The serving simulator must work on walked (rebuilt) scenarios too.
	lib, err := NewSpecialLibrary(4, 41)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario(lib, DefaultScenarioConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := sc.Place("gen")
	if err != nil {
		t.Fatal(err)
	}
	walk, err := sc.StartWalk(43)
	if err != nil {
		t.Fatal(err)
	}
	if err := walk.Advance(1200); err != nil {
		t.Fatal(err)
	}
	moved, err := walk.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := moved.Serve(p, DefaultServeConfig(), 44)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no traffic after walking")
	}
}
