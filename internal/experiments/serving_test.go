package experiments

import "testing"

func TestAblationLayoutShape(t *testing.T) {
	tbl := runTiny(t, "ablate-layout")
	if len(tbl.Series) != 2 || len(tbl.Series[0].X) != 3 {
		t.Fatal("unexpected shape")
	}
}

func TestServeLoadShape(t *testing.T) {
	tbl := runTiny(t, "serve-load")
	if len(tbl.Series) != 3 || len(tbl.Series[0].X) != 5 {
		t.Fatal("unexpected shape")
	}
	gen := tbl.Series[0]
	// QoS hit ratio must degrade from the lightest to the heaviest load.
	if gen.Points[len(gen.Points)-1].Mean >= gen.Points[0].Mean {
		t.Fatalf("no contention effect: %v -> %v",
			gen.Points[0].Mean, gen.Points[len(gen.Points)-1].Mean)
	}
	// TrimCaching Gen must dominate Popularity under load.
	pop := tbl.Series[2]
	var genSum, popSum float64
	for pi := range gen.Points {
		genSum += gen.Points[pi].Mean
		popSum += pop.Points[pi].Mean
	}
	if genSum <= popSum {
		t.Fatalf("Gen total %v not above Popularity %v", genSum, popSum)
	}
}
