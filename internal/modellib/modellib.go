// Package modellib implements the parameter-sharing AI model library of
// §III-B of the paper. A library is a set of parameter blocks (a block can
// be a CNN layer, a transformer block, a LoRA adapter, or a whole backbone)
// plus a set of models, each defined as a subset of blocks. A block
// contained in more than one model is a *shared* block and needs to be
// stored only once per edge server; a block contained in exactly one model
// is a *specific* block.
package modellib

import (
	"errors"
	"fmt"
	"sort"
)

// Block is one parameter block D'_j.
type Block struct {
	// ID is the block index j in [0, NumBlocks).
	ID int `json:"id"`
	// SizeBytes is the block size D'_j.
	SizeBytes int64 `json:"sizeBytes"`
	// Label is a human-readable tag, e.g. "resnet50/conv3_2/bn".
	Label string `json:"label,omitempty"`
}

// Model is one AI model i defined by the set of parameter blocks it
// contains.
type Model struct {
	// ID is the model index i in [0, NumModels).
	ID int `json:"id"`
	// Name is a human-readable tag, e.g. "resnet18/shark".
	Name string `json:"name,omitempty"`
	// Family groups models derived from the same pre-trained model.
	Family string `json:"family,omitempty"`
	// Blocks lists the block IDs of the model, sorted ascending.
	Blocks []int `json:"blocks"`
}

// Library is a validated, immutable parameter-sharing model library with
// precomputed sharing indexes. Construct it with New.
type Library struct {
	blocks []Block
	models []Model

	sizes      []int64 // sizes[i] = D_i, full model size
	sharedSize []int64 // sharedSize[i] = bytes of shared blocks in model i
	footprints [][]int // footprints[i] = sorted shared block IDs of model i
	shared     []bool  // shared[j] = block j is in >1 model
}

// Common validation errors.
var (
	ErrEmptyLibrary = errors.New("modellib: library needs at least one model and one block")
	ErrBadBlockRef  = errors.New("modellib: model references unknown or duplicate block")
	ErrBadSize      = errors.New("modellib: block size must be positive")
	ErrBadID        = errors.New("modellib: IDs must equal slice indexes")
)

// New validates blocks and models and builds the sharing indexes.
// Model.Blocks slices are copied and sorted; inputs are not retained.
func New(blocks []Block, models []Model) (*Library, error) {
	if len(blocks) == 0 || len(models) == 0 {
		return nil, ErrEmptyLibrary
	}
	lib := &Library{
		blocks: make([]Block, len(blocks)),
		models: make([]Model, len(models)),
	}
	for j, b := range blocks {
		if b.ID != j {
			return nil, fmt.Errorf("%w: block %d has ID %d", ErrBadID, j, b.ID)
		}
		if b.SizeBytes <= 0 {
			return nil, fmt.Errorf("%w: block %d size %d", ErrBadSize, j, b.SizeBytes)
		}
		lib.blocks[j] = b
	}
	owners := make([]int, len(blocks)) // owners[j] = |Ij|, the models containing block j
	lib.sizes = make([]int64, len(models))
	for i, m := range models {
		if m.ID != i {
			return nil, fmt.Errorf("%w: model %d has ID %d", ErrBadID, i, m.ID)
		}
		if len(m.Blocks) == 0 {
			return nil, fmt.Errorf("%w: model %d has no blocks", ErrBadBlockRef, i)
		}
		bs := make([]int, len(m.Blocks))
		copy(bs, m.Blocks)
		sort.Ints(bs)
		for bi, j := range bs {
			if j < 0 || j >= len(blocks) {
				return nil, fmt.Errorf("%w: model %d block %d", ErrBadBlockRef, i, j)
			}
			if bi > 0 && bs[bi-1] == j {
				return nil, fmt.Errorf("%w: model %d repeats block %d", ErrBadBlockRef, i, j)
			}
			owners[j]++
			lib.sizes[i] += blocks[j].SizeBytes
		}
		m.Blocks = bs
		lib.models[i] = m
	}
	lib.shared = make([]bool, len(blocks))
	for j, n := range owners {
		lib.shared[j] = n > 1
	}
	lib.sharedSize = make([]int64, len(models))
	lib.footprints = make([][]int, len(models))
	for i := range lib.models {
		for _, j := range lib.models[i].Blocks {
			if lib.shared[j] {
				lib.footprints[i] = append(lib.footprints[i], j)
				lib.sharedSize[i] += lib.blocks[j].SizeBytes
			}
		}
	}
	return lib, nil
}

// NumModels returns the library size I.
func (l *Library) NumModels() int { return len(l.models) }

// NumBlocks returns the total number of parameter blocks J.
func (l *Library) NumBlocks() int { return len(l.blocks) }

// Model returns model i.
func (l *Library) Model(i int) Model { return l.models[i] }

// Block returns block j.
func (l *Library) Block(j int) Block { return l.blocks[j] }

// ModelBlocks returns the sorted block IDs of model i. The returned slice
// must not be modified.
func (l *Library) ModelBlocks(i int) []int { return l.models[i].Blocks }

// ModelSize returns D_i, the total size of model i in bytes.
func (l *Library) ModelSize(i int) int64 { return l.sizes[i] }

// BlockSize returns D'_j in bytes.
func (l *Library) BlockSize(j int) int64 { return l.blocks[j].SizeBytes }

// IsShared reports whether block j appears in more than one model.
func (l *Library) IsShared(j int) bool { return l.shared[j] }

// SharedFootprint returns the sorted shared-block IDs of model i — the part
// of the model that the TrimCaching Spec algorithm reasons about separately.
// The returned slice must not be modified.
func (l *Library) SharedFootprint(i int) []int { return l.footprints[i] }

// SharedSize returns the bytes of shared blocks in model i (the paper's
// d_{N,i} when N covers the whole footprint).
func (l *Library) SharedSize(i int) int64 { return l.sharedSize[i] }

// SpecificSize returns D_i minus the shared bytes: the size the Spec DP
// charges for model i once its shared footprint is cached (eq. 13).
func (l *Library) SpecificSize(i int) int64 { return l.sizes[i] - l.sharedSize[i] }

// Stats summarizes the storage efficiency of parameter sharing.
type Stats struct {
	NumModels        int     `json:"numModels"`
	NumBlocks        int     `json:"numBlocks"`
	NumSharedBlocks  int     `json:"numSharedBlocks"`
	SumModelBytes    int64   `json:"sumModelBytes"`  // Σ D_i: cost without sharing
	UniqueBytes      int64   `json:"uniqueBytes"`    // Σ D'_j: cost with full sharing
	SharingRatio     float64 `json:"sharingRatio"`   // UniqueBytes / SumModelBytes
	MeanSharedFrac   float64 `json:"meanSharedFrac"` // mean of SharedSize/ModelSize
	DistinctFamilies int     `json:"distinctFamilies"`
}

// Stats computes the sharing statistics of the library.
func (l *Library) Stats() Stats {
	var st Stats
	st.NumModels = len(l.models)
	st.NumBlocks = len(l.blocks)
	families := map[string]bool{}
	for j := range l.blocks {
		st.UniqueBytes += l.blocks[j].SizeBytes
		if l.shared[j] {
			st.NumSharedBlocks++
		}
	}
	var fracSum float64
	for i := range l.models {
		st.SumModelBytes += l.sizes[i]
		fracSum += float64(l.sharedSize[i]) / float64(l.sizes[i])
		families[l.models[i].Family] = true
	}
	if st.SumModelBytes > 0 {
		st.SharingRatio = float64(st.UniqueBytes) / float64(st.SumModelBytes)
	}
	st.MeanSharedFrac = fracSum / float64(len(l.models))
	st.DistinctFamilies = len(families)
	return st
}

// BlocksUnion returns the deduplicated total size in bytes of the union of
// blocks of the given models — the storage an edge server needs to cache all
// of them (the paper's g_m, eq. 7). The scratch slice, if non-nil, must have
// length NumBlocks and be all-false; it is restored before returning.
func (l *Library) BlocksUnion(models []int, scratch []bool) int64 {
	if scratch == nil {
		scratch = make([]bool, len(l.blocks))
	}
	var total int64
	for _, i := range models {
		for _, j := range l.models[i].Blocks {
			if !scratch[j] {
				scratch[j] = true
				total += l.blocks[j].SizeBytes
			}
		}
	}
	for _, i := range models {
		for _, j := range l.models[i].Blocks {
			scratch[j] = false
		}
	}
	return total
}
