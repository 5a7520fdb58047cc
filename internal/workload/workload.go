// Package workload models user demand (§VII-A of the paper): per-user model
// request probabilities following a Zipf law over the model library, QoS
// deadlines on end-to-end latency drawn uniformly from [0.5, 1] s, and
// on-device inference latencies.
package workload

import (
	"fmt"

	"trimcaching/internal/rng"
)

// Config holds the demand-model parameters.
type Config struct {
	// ZipfExponent is the skew s of the request popularity law. The paper
	// cites Zipf [43] without the exponent; 0.8 is the conventional choice
	// for content popularity and is documented in DESIGN.md.
	ZipfExponent float64 `json:"zipfExponent"`
	// PerUserPermutation randomizes each user's popularity ranking. When
	// false every user shares the global rank order.
	PerUserPermutation bool `json:"perUserPermutation"`
	// DeadlineMinS/DeadlineMaxS bound the E2E latency QoS T̄_{k,i}
	// (paper: [0.5, 1] s).
	DeadlineMinS float64 `json:"deadlineMinS"`
	DeadlineMaxS float64 `json:"deadlineMaxS"`
	// InferMinS/InferMaxS bound the on-device inference latency t_{k,i}.
	// The paper folds inference into the QoS budget without giving the
	// draw; [0.02, 0.1] s covers mobile CNN/LLM-token inference.
	InferMinS float64 `json:"inferMinS"`
	InferMaxS float64 `json:"inferMaxS"`
}

// DefaultConfig returns the documented §VII-A demand parameters. The Zipf
// ranking is global (all users share the popularity order), so the
// Independent baseline duplicates the same top models on every server;
// per-user permutations would flatten the aggregate popularity, which
// mostly hurts the uncoordinated Popularity baseline. DESIGN.md has the
// measurements.
func DefaultConfig() Config {
	return Config{
		ZipfExponent:       0.8,
		PerUserPermutation: false,
		DeadlineMinS:       0.5,
		DeadlineMaxS:       1.0,
		InferMinS:          0.02,
		InferMaxS:          0.1,
	}
}

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	if c.ZipfExponent < 0 {
		return fmt.Errorf("workload: ZipfExponent must be >= 0, got %v", c.ZipfExponent)
	}
	if !(c.DeadlineMinS >= 0 && c.DeadlineMaxS >= c.DeadlineMinS) {
		return fmt.Errorf("workload: bad deadline range [%v, %v]", c.DeadlineMinS, c.DeadlineMaxS)
	}
	if !(c.InferMinS >= 0 && c.InferMaxS >= c.InferMinS) {
		return fmt.Errorf("workload: bad inference range [%v, %v]", c.InferMinS, c.InferMaxS)
	}
	// Inference latency may exceed individual deadlines (such requests are
	// simply unservable, I1 = 0), but a workload where even the fastest
	// inference exceeds the loosest deadline is vacuous.
	if c.InferMinS >= c.DeadlineMaxS {
		return fmt.Errorf("workload: inference min %v leaves no request servable within deadline max %v",
			c.InferMinS, c.DeadlineMaxS)
	}
	return nil
}

// Workload holds the sampled demand of K users over I models.
type Workload struct {
	numUsers  int
	numModels int
	prob      [][]float64 // p[k][i], each row sums to 1
	deadlineS [][]float64 // T̄[k][i] in seconds
	inferS    [][]float64 // t[k][i] in seconds
	// aliased marks a NewAliased slot table: rows point into a parent
	// workload, so memory accounting counts only the row headers here.
	aliased bool
}

// Generate samples a workload for numUsers users over numModels models.
func Generate(numUsers, numModels int, cfg Config, src *rng.Source) (*Workload, error) {
	if numUsers <= 0 || numModels <= 0 {
		return nil, fmt.Errorf("workload: need positive users (%d) and models (%d)", numUsers, numModels)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	zipf, err := rng.NewZipf(numModels, cfg.ZipfExponent)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	pmf := zipf.PMF()

	w := &Workload{
		numUsers:  numUsers,
		numModels: numModels,
		prob:      make([][]float64, numUsers),
		deadlineS: make([][]float64, numUsers),
		inferS:    make([][]float64, numUsers),
	}
	// One global popularity permutation decorrelates rank from model index
	// (and hence from family/size); per-user mode redraws it per user.
	basePerm := src.Perm(numModels)
	for k := 0; k < numUsers; k++ {
		row := make([]float64, numModels)
		perm := basePerm
		if cfg.PerUserPermutation {
			perm = src.Perm(numModels)
		}
		for rank, i := range perm {
			row[i] = pmf[rank]
		}
		w.prob[k] = row
		dl := make([]float64, numModels)
		inf := make([]float64, numModels)
		for i := 0; i < numModels; i++ {
			dl[i] = src.Uniform(cfg.DeadlineMinS, cfg.DeadlineMaxS)
			inf[i] = src.Uniform(cfg.InferMinS, cfg.InferMaxS)
		}
		w.deadlineS[k] = dl
		w.inferS[k] = inf
	}
	return w, nil
}

// NewAliased returns a workload of numUsers users over numModels models
// whose rows all start as one shared all-zero row: zero request mass and
// zero deadlines (no request servable), the inert state of an unbound
// shard slot. Rows are re-pointed with SetUserRows; nothing is copied, so
// a slot table over a large parent workload costs only row headers.
func NewAliased(numUsers, numModels int) (*Workload, error) {
	if numUsers <= 0 || numModels <= 0 {
		return nil, fmt.Errorf("workload: need positive users (%d) and models (%d)", numUsers, numModels)
	}
	zero := make([]float64, numModels)
	w := &Workload{
		numUsers:  numUsers,
		numModels: numModels,
		prob:      make([][]float64, numUsers),
		deadlineS: make([][]float64, numUsers),
		inferS:    make([][]float64, numUsers),
		aliased:   true,
	}
	for k := 0; k < numUsers; k++ {
		w.prob[k] = zero
		w.deadlineS[k] = zero
		w.inferS[k] = zero
	}
	return w, nil
}

// SetUserRows re-points user k's probability, deadline, and inference rows
// at the given slices (aliased, not copied; callers must treat them as
// immutable while bound). This is the shard layer's slot-rebinding hook: a
// scenario.Instance built over this workload reads rows live, so after a
// swap the instance must be refreshed via Instance.ReviseUsers before its
// derived state is read again.
func (w *Workload) SetUserRows(k int, prob, deadlineS, inferS []float64) error {
	if k < 0 || k >= w.numUsers {
		return fmt.Errorf("workload: user %d out of range [0,%d)", k, w.numUsers)
	}
	if len(prob) != w.numModels || len(deadlineS) != w.numModels || len(inferS) != w.numModels {
		return fmt.Errorf("workload: rows have %d/%d/%d models, want %d",
			len(prob), len(deadlineS), len(inferS), w.numModels)
	}
	w.prob[k] = prob
	w.deadlineS[k] = deadlineS
	w.inferS[k] = inferS
	return nil
}

// SetUserProbRow re-points only user k's probability row (aliased), leaving
// the deadline and inference rows bound. This is the shard layer's
// ownership-flip and parking hook: the user's QoS thresholds are untouched,
// so the owning instance needs only a mass revision
// (Instance.ReviseUsers' massOnly list), not a threshold rebuild.
func (w *Workload) SetUserProbRow(k int, prob []float64) error {
	if k < 0 || k >= w.numUsers {
		return fmt.Errorf("workload: user %d out of range [0,%d)", k, w.numUsers)
	}
	if len(prob) != w.numModels {
		return fmt.Errorf("workload: prob row has %d models, want %d", len(prob), w.numModels)
	}
	w.prob[k] = prob
	return nil
}

// NumUsers returns K.
func (w *Workload) NumUsers() int { return w.numUsers }

// NumModels returns I.
func (w *Workload) NumModels() int { return w.numModels }

// Prob returns p_{k,i}, user k's request probability for model i.
func (w *Workload) Prob(k, i int) float64 { return w.prob[k][i] }

// ProbRow returns user k's probability vector over all models. The slice
// aliases internal state; callers must treat it as read-only.
func (w *Workload) ProbRow(k int) []float64 { return w.prob[k] }

// DeadlineS returns T̄_{k,i}, the E2E latency QoS in seconds.
func (w *Workload) DeadlineS(k, i int) float64 { return w.deadlineS[k][i] }

// DeadlineRow returns user k's deadline vector over all models. The slice
// aliases internal state; callers must treat it as read-only.
func (w *Workload) DeadlineRow(k int) []float64 { return w.deadlineS[k] }

// InferS returns t_{k,i}, the on-device inference latency in seconds.
func (w *Workload) InferS(k, i int) float64 { return w.inferS[k][i] }

// InferRow returns user k's inference-latency vector over all models. The
// slice aliases internal state; callers must treat it as read-only.
func (w *Workload) InferRow(k int) []float64 { return w.inferS[k] }

// MemoryBytes returns the heap bytes the workload owns: row headers for
// all three tables, plus the row data for workloads that own their rows.
// Aliased slot tables (NewAliased) count headers only — their rows point
// into a parent workload, which accounts for the data itself.
func (w *Workload) MemoryBytes() int64 {
	const hdrSize = 24 // slice header
	n := int64(cap(w.prob)+cap(w.deadlineS)+cap(w.inferS)) * hdrSize
	if w.aliased {
		return n
	}
	for k := range w.prob {
		n += int64(cap(w.prob[k])+cap(w.deadlineS[k])+cap(w.inferS[k])) * 8
	}
	return n
}
