package workload

import (
	"testing"

	"trimcaching/internal/rng"
)

// totalMass returns Σ_{k,i} p_{k,i}.
func totalMass(w *Workload) float64 {
	var total float64
	for k := 0; k < w.NumUsers(); k++ {
		for _, p := range w.ProbRow(k) {
			total += p
		}
	}
	return total
}

func TestNewAliased(t *testing.T) {
	if _, err := NewAliased(0, 5); err == nil {
		t.Error("zero users accepted")
	}
	w, err := NewAliased(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if total := totalMass(w); total != 0 {
		t.Errorf("fresh aliased workload has mass %v", total)
	}
	parent, err := Generate(3, 4, DefaultConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetUserRows(1, parent.ProbRow(2), parent.DeadlineRow(2), parent.InferRow(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if w.Prob(1, i) != parent.Prob(2, i) || w.DeadlineS(1, i) != parent.DeadlineS(2, i) || w.InferS(1, i) != parent.InferS(2, i) {
			t.Fatalf("row alias mismatch at model %d", i)
		}
		if w.Prob(0, i) != 0 || w.DeadlineS(0, i) != 0 {
			t.Fatalf("unbound slot leaked values at model %d", i)
		}
	}
	if err := w.SetUserRows(3, parent.ProbRow(0), parent.DeadlineRow(0), parent.InferRow(0)); err == nil {
		t.Error("out-of-range user accepted")
	}
	if err := w.SetUserRows(0, parent.ProbRow(0)[:2], parent.DeadlineRow(0), parent.InferRow(0)); err == nil {
		t.Error("short row accepted")
	}
}
