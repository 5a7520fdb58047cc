package experiments

import "testing"

func TestAblationDeadlineShape(t *testing.T) {
	tbl := runTiny(t, "ablate-deadline")
	if len(tbl.Series) != 2 || len(tbl.Series[0].X) != 5 {
		t.Fatalf("unexpected shape")
	}
	gen := tbl.Series[0]
	// Looser deadlines can only help: the last point (2x budget) must beat
	// the first (0.6x budget).
	if gen.Points[len(gen.Points)-1].Mean <= gen.Points[0].Mean {
		t.Fatalf("hit ratio not increasing with deadline: %v -> %v",
			gen.Points[0].Mean, gen.Points[len(gen.Points)-1].Mean)
	}
}

func TestAblationShadowingShape(t *testing.T) {
	tbl := runTiny(t, "ablate-shadowing")
	if len(tbl.Series) != 2 || len(tbl.Series[0].X) != 3 {
		t.Fatal("unexpected shape")
	}
	// TrimCaching must keep its lead at every shadowing level.
	gen, ind := tbl.Series[0], tbl.Series[1]
	for pi := range gen.Points {
		if gen.Points[pi].Mean < ind.Points[pi].Mean-0.02 {
			t.Fatalf("sigma=%v: Gen %v below Independent %v",
				gen.X[pi], gen.Points[pi].Mean, ind.Points[pi].Mean)
		}
	}
}

func TestAblationHeteroShape(t *testing.T) {
	tbl := runTiny(t, "ablate-hetero")
	if len(tbl.Series) != 3 || len(tbl.Series[0].X) != 3 {
		t.Fatal("unexpected shape")
	}
	for _, s := range tbl.Series {
		for pi, pt := range s.Points {
			if pt.Mean <= 0 || pt.Mean > 1 {
				t.Fatalf("%s point %d: hit ratio %v", s.Label, pi, pt.Mean)
			}
		}
	}
}

func TestAblationRatioShape(t *testing.T) {
	tbl := runTiny(t, "ablate-ratio")
	if len(tbl.Series) != 3 {
		t.Fatalf("%d series", len(tbl.Series))
	}
	// The refined variant can never lose to plain Gen on the same trials.
	gen, refined := tbl.Series[0], tbl.Series[2]
	for pi := range gen.Points {
		if refined.Points[pi].Mean < gen.Points[pi].Mean-1e-9 {
			t.Fatalf("Q=%v: refine %v below plain %v",
				gen.X[pi], refined.Points[pi].Mean, gen.Points[pi].Mean)
		}
	}
}

func TestFig7ReplaceShape(t *testing.T) {
	tbl := runTiny(t, "fig7-replace")
	if len(tbl.Series) != 2 {
		t.Fatalf("%d series", len(tbl.Series))
	}
	frozen, replaced := tbl.Series[0], tbl.Series[1]
	var frozenSum, replacedSum float64
	for pi := range frozen.Points {
		frozenSum += frozen.Points[pi].Mean
		replacedSum += replaced.Points[pi].Mean
	}
	// Replacing on degradation can only help the sustained hit ratio.
	if replacedSum < frozenSum*0.97 {
		t.Fatalf("replacement policy total %v below frozen %v", replacedSum, frozenSum)
	}
}
