// Package finetune reproduces Fig. 1 of the paper: inference accuracy of
// fine-tuned ResNet-50 models versus the number of frozen bottom layers.
//
// The original figure is produced by actually fine-tuning ResNet-50 on
// CIFAR-100-derived "transportation" and "animal" superclass tasks, which
// requires GPUs and training data this repository does not assume.
// SUBSTITUTION (documented in DESIGN.md): a calibrated feature-reuse model.
// Bottom layers hold generic features, so accuracy degrades slowly at first
// and faster as task-specific top layers are frozen; the curve
//
//	accuracy(L) = base − maxDegradation · (L/total)^shape
//
// is calibrated to the paper's reported numbers (≈4.05% degradation for
// transportation and ≈5.2% for animal when the first 97 of 107 layers are
// frozen). Finite-test-set noise is modeled as binomial sampling.
package finetune

import (
	"fmt"
	"math"

	"trimcaching/internal/rng"
)

// Task is one downstream fine-tuning task.
type Task struct {
	// Name labels the task, e.g. "transportation".
	Name string
	// BaseAccuracy is the full fine-tuning accuracy (0 frozen layers).
	BaseAccuracy float64
	// MaxDegradation is the accuracy loss with every layer frozen.
	MaxDegradation float64
	// Shape controls how sharply degradation concentrates in top layers
	// (> 1: bottom layers are nearly free to freeze).
	Shape float64
}

// TotalLayers is the trainable-parameter-layer count of ResNet-50 with a
// classification head, matching internal/libgen.
const TotalLayers = 107

// PaperTasks returns the two Fig. 1 tasks, calibrated so that freezing the
// first 97 layers degrades accuracy by ≈4.05% (transportation) and ≈5.2%
// (animal), as reported in the paper.
func PaperTasks() []Task {
	// With shape = 3 and frac = 97/107 = 0.9065: frac^3 = 0.745.
	// transportation: 0.0405 / 0.745 = 0.0544; animal: 0.052 / 0.745 = 0.0698.
	return []Task{
		{Name: "transportation", BaseAccuracy: 0.978, MaxDegradation: 0.0544, Shape: 3},
		{Name: "animal", BaseAccuracy: 0.962, MaxDegradation: 0.0698, Shape: 3},
	}
}

// Accuracy returns the model-predicted inference accuracy when the first
// frozen of total bottom layers are frozen during fine-tuning.
func Accuracy(t Task, frozen, total int) (float64, error) {
	if total <= 0 {
		return 0, fmt.Errorf("finetune: total layers must be positive, got %d", total)
	}
	if frozen < 0 || frozen > total {
		return 0, fmt.Errorf("finetune: frozen layers %d outside [0, %d]", frozen, total)
	}
	if t.BaseAccuracy <= 0 || t.BaseAccuracy > 1 || t.MaxDegradation < 0 || t.Shape <= 0 {
		return 0, fmt.Errorf("finetune: invalid task %+v", t)
	}
	frac := float64(frozen) / float64(total)
	acc := t.BaseAccuracy - t.MaxDegradation*math.Pow(frac, t.Shape)
	if acc < 0 {
		acc = 0
	}
	return acc, nil
}

// MeasuredAccuracy draws a noisy accuracy estimate as if evaluated on a
// finite test set of testN samples (binomial sampling noise).
func MeasuredAccuracy(t Task, frozen, total, testN int, src *rng.Source) (float64, error) {
	acc, err := Accuracy(t, frozen, total)
	if err != nil {
		return 0, err
	}
	if testN <= 0 {
		return 0, fmt.Errorf("finetune: testN must be positive, got %d", testN)
	}
	return float64(src.Binomial(testN, acc)) / float64(testN), nil
}
