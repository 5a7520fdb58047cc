package topology

import (
	"testing"

	"trimcaching/internal/rng"
)

func TestLayoutString(t *testing.T) {
	if LayoutUniform.String() != "uniform" || LayoutGrid.String() != "grid" || LayoutPPP.String() != "ppp" || Layout(42).String() == "" {
		t.Fatal("String()")
	}
}

func TestGridLayoutDeterministicAndCentered(t *testing.T) {
	cfg := paperConfig()
	cfg.ServerLayout = LayoutGrid
	cfg.NumServers = 9
	a, err := Generate(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumServers() != 9 {
		t.Fatalf("grid produced %d servers", a.NumServers())
	}
	// Grid positions are independent of the seed.
	for m := 0; m < 9; m++ {
		if a.ServerPos(m) != b.ServerPos(m) {
			t.Fatalf("grid position %d depends on seed", m)
		}
		if !a.Area().Contains(a.ServerPos(m)) {
			t.Fatalf("server %d outside area", m)
		}
	}
	// 3x3 grid on 1000 m: first center at (166.67, 166.67).
	p := a.ServerPos(0)
	if p.X < 160 || p.X > 173 || p.Y < 160 || p.Y > 173 {
		t.Fatalf("first grid center at %v", p)
	}
}

func TestGridLayoutNonSquareCount(t *testing.T) {
	cfg := paperConfig()
	cfg.ServerLayout = LayoutGrid
	cfg.NumServers = 7 // 3 cols x 3 rows, 7 filled
	topo, err := Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumServers() != 7 {
		t.Fatalf("got %d servers", topo.NumServers())
	}
	seen := map[[2]int]bool{}
	for m := 0; m < 7; m++ {
		p := topo.ServerPos(m)
		key := [2]int{int(p.X), int(p.Y)}
		if seen[key] {
			t.Fatalf("duplicate grid cell %v", key)
		}
		seen[key] = true
	}
}

func TestPPPLayoutVariesCount(t *testing.T) {
	cfg := paperConfig()
	cfg.ServerLayout = LayoutPPP
	counts := map[int]bool{}
	for seed := uint64(0); seed < 30; seed++ {
		topo, err := Generate(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if topo.NumServers() < 1 {
			t.Fatal("PPP produced zero servers")
		}
		counts[topo.NumServers()] = true
	}
	if len(counts) < 3 {
		t.Fatalf("PPP server counts barely vary: %v", counts)
	}
}

func TestPPPMeanNearIntensity(t *testing.T) {
	cfg := paperConfig()
	cfg.ServerLayout = LayoutPPP
	cfg.NumServers = 10
	var total int
	const trials = 200
	for seed := uint64(0); seed < trials; seed++ {
		topo, err := Generate(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		total += topo.NumServers()
	}
	mean := float64(total) / trials
	if mean < 9 || mean > 11 {
		t.Fatalf("PPP mean %v, want ~10", mean)
	}
}
