package finetune

import (
	"math"
	"testing"

	"trimcaching/internal/rng"
)

func TestPaperTasksCalibration(t *testing.T) {
	// The paper reports ~4.05% (transportation) and ~5.2% (animal)
	// degradation when the first 97 of 107 layers are frozen.
	wants := map[string]float64{"transportation": 0.0405, "animal": 0.052}
	for _, task := range PaperTasks() {
		base, err := Accuracy(task, 0, TotalLayers)
		if err != nil {
			t.Fatal(err)
		}
		if base != task.BaseAccuracy {
			t.Fatalf("%s: base accuracy %v", task.Name, base)
		}
		at97, err := Accuracy(task, 97, TotalLayers)
		if err != nil {
			t.Fatal(err)
		}
		deg := base - at97
		want := wants[task.Name]
		if math.Abs(deg-want) > 0.004 {
			t.Fatalf("%s: degradation at 97 layers = %v, want ~%v", task.Name, deg, want)
		}
	}
}

func TestAccuracyMonotoneNonIncreasing(t *testing.T) {
	for _, task := range PaperTasks() {
		prev := math.Inf(1)
		for L := 0; L <= TotalLayers; L++ {
			acc, err := Accuracy(task, L, TotalLayers)
			if err != nil {
				t.Fatal(err)
			}
			if acc > prev+1e-12 {
				t.Fatalf("%s: accuracy increased at %d frozen layers", task.Name, L)
			}
			if acc < 0 || acc > 1 {
				t.Fatalf("%s: accuracy %v", task.Name, acc)
			}
			prev = acc
		}
	}
}

func TestBottomLayersNearlyFree(t *testing.T) {
	// Freezing the first third must cost well under 1% accuracy — that is
	// the transfer-learning phenomenon Fig. 1 demonstrates.
	for _, task := range PaperTasks() {
		base, err := Accuracy(task, 0, TotalLayers)
		if err != nil {
			t.Fatal(err)
		}
		third, err := Accuracy(task, TotalLayers/3, TotalLayers)
		if err != nil {
			t.Fatal(err)
		}
		if base-third > 0.01 {
			t.Fatalf("%s: freezing a third costs %v", task.Name, base-third)
		}
	}
}

func TestAccuracyValidation(t *testing.T) {
	task := PaperTasks()[0]
	if _, err := Accuracy(task, -1, 107); err == nil {
		t.Fatal("negative frozen must error")
	}
	if _, err := Accuracy(task, 108, 107); err == nil {
		t.Fatal("frozen > total must error")
	}
	if _, err := Accuracy(task, 0, 0); err == nil {
		t.Fatal("zero total must error")
	}
	bad := Task{Name: "x", BaseAccuracy: 1.5, MaxDegradation: 0.1, Shape: 1}
	if _, err := Accuracy(bad, 0, 10); err == nil {
		t.Fatal("invalid task must error")
	}
}

func TestMeasuredAccuracyNoise(t *testing.T) {
	task := PaperTasks()[0]
	src := rng.New(1)
	exact, err := Accuracy(task, 50, TotalLayers)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const trials = 500
	for i := 0; i < trials; i++ {
		m, err := MeasuredAccuracy(task, 50, TotalLayers, 1000, src)
		if err != nil {
			t.Fatal(err)
		}
		if m < 0 || m > 1 {
			t.Fatalf("measured accuracy %v", m)
		}
		sum += m
	}
	if mean := sum / trials; math.Abs(mean-exact) > 0.01 {
		t.Fatalf("measured mean %v vs exact %v", mean, exact)
	}
	if _, err := MeasuredAccuracy(task, 50, TotalLayers, 0, src); err == nil {
		t.Fatal("zero testN must error")
	}
}

// TestCurve measures the Fig. 1 curve the way fig1 does, one
// MeasuredAccuracy draw per frozen-layer count.
func TestCurve(t *testing.T) {
	task := PaperTasks()[1]
	src := rng.New(2)
	counts := []int{0, 20, 40, 60, 80, 97}
	accs := make([]float64, len(counts))
	for idx, L := range counts {
		acc, err := MeasuredAccuracy(task, L, TotalLayers, 5000, src)
		if err != nil {
			t.Fatal(err)
		}
		accs[idx] = acc
	}
	// Overall trend: last point below first by a few percent.
	if accs[len(accs)-1] > accs[0]-0.02 {
		t.Fatalf("curve not degrading: %v -> %v", accs[0], accs[len(accs)-1])
	}
	if _, err := MeasuredAccuracy(task, -5, TotalLayers, 100, src); err == nil {
		t.Fatal("invalid count must error")
	}
}
