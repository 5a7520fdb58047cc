package experiments

import (
	"fmt"

	"trimcaching/internal/finetune"
	"trimcaching/internal/rng"
	"trimcaching/internal/stats"
)

// fig1 reproduces Fig. 1: inference accuracy of fine-tuned ResNet-50 models
// versus the number of frozen bottom layers, for the "transportation" and
// "animal" downstream tasks. The real figure requires GPU fine-tuning on
// CIFAR-100; this driver uses the calibrated synthetic transfer-accuracy
// model of internal/finetune (substitution documented in DESIGN.md).
func fig1(opt Options) (*stats.Table, error) {
	frozenCounts := []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 97, 107}
	const testN = 2000 // simulated test-set size per evaluation
	root := rng.New(rng.SaltSeed(opt.Seed, "fig1"))

	var series []stats.Series
	for _, task := range finetune.PaperTasks() {
		s := stats.Series{Label: task.Name}
		for _, L := range frozenCounts {
			var acc stats.Accumulator
			// The paper fine-tunes once per setting; we average a handful
			// of simulated runs to populate the error bars.
			for trial := 0; trial < 10; trial++ {
				v, err := finetune.MeasuredAccuracy(task, L, finetune.TotalLayers, testN,
					root.Split(fmt.Sprintf("%s/%d/%d", task.Name, L, trial)))
				if err != nil {
					return nil, fmt.Errorf("experiments: fig1: %w", err)
				}
				acc.Add(v)
			}
			s.Append(float64(L), acc.Summarize())
		}
		series = append(series, s)
	}

	// Report the calibration anchors the paper quotes.
	notes := []string{"synthetic transfer-accuracy model calibrated to the paper (see DESIGN.md)"}
	for _, task := range finetune.PaperTasks() {
		base, err := finetune.Accuracy(task, 0, finetune.TotalLayers)
		if err != nil {
			return nil, err
		}
		at97, err := finetune.Accuracy(task, 97, finetune.TotalLayers)
		if err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("%s: degradation at 97 frozen layers = %.2f%%", task.Name, 100*(base-at97)))
	}
	return &stats.Table{
		Title:  "Fig. 1 inference accuracy vs number of frozen bottom layers (ResNet-50)",
		XLabel: "frozen layers",
		YLabel: "accuracy",
		Series: series,
		Notes:  notes,
	}, nil
}
