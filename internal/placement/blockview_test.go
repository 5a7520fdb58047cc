package placement

import (
	"fmt"
	"testing"

	"trimcaching/internal/modellib"
)

// BlockPlacement is the paper's P1.2 decision view (§IV-B): y_{m,j} = 1 when
// edge server m stores parameter block j. It relates to the model-level
// view X by
//
//	y_{m,j} = 1 − Π_{i∈Ij} (1 − x_{m,i})   (server stores a block iff some
//	                                        cached model contains it)
//	x_{m,i} = Π_{j∈Ji} y_{m,j}             (a model is cached iff all its
//	                                        blocks are stored)
//
// Under this view the storage constraint is a plain knapsack
// Σ_j D'_j·y_{m,j} ≤ Q_m, while the objective becomes supermodular — the
// transformation the paper uses to prove inapproximability (Prop. 2). The
// solvers work on the model view, so the block view lives here, as the
// oracle that both views charge every server the same storage.
type BlockPlacement struct {
	numServers int
	numBlocks  int
	stored     []bool // stored[m*numBlocks+j]
}

// NewBlockPlacement returns an empty block-level placement.
func NewBlockPlacement(numServers, numBlocks int) *BlockPlacement {
	return &BlockPlacement{
		numServers: numServers,
		numBlocks:  numBlocks,
		stored:     make([]bool, numServers*numBlocks),
	}
}

// NumServers returns M.
func (b *BlockPlacement) NumServers() int { return b.numServers }

// NumBlocks returns J.
func (b *BlockPlacement) NumBlocks() int { return b.numBlocks }

// Has reports y_{m,j}.
func (b *BlockPlacement) Has(m, j int) bool { return b.stored[m*b.numBlocks+j] }

// Set sets y_{m,j} = 1.
func (b *BlockPlacement) Set(m, j int) { b.stored[m*b.numBlocks+j] = true }

// StorageBytes returns Σ_j D'_j·y_{m,j}, server m's storage use under the
// block view (eq. 8b) — by construction identical to g_m of the model view.
func (b *BlockPlacement) StorageBytes(lib *modellib.Library, m int) int64 {
	var total int64
	for j := 0; j < b.numBlocks; j++ {
		if b.stored[m*b.numBlocks+j] {
			total += lib.BlockSize(j)
		}
	}
	return total
}

// BlockView converts a model-level placement X into the block-level view Y
// via y_{m,j} = 1 − Π_{i∈Ij}(1 − x_{m,i}).
func BlockView(lib *modellib.Library, p *Placement) (*BlockPlacement, error) {
	if lib == nil || p == nil {
		return nil, fmt.Errorf("placement: library and placement are required")
	}
	if p.NumModels() != lib.NumModels() {
		return nil, fmt.Errorf("placement: placement has %d models, library %d",
			p.NumModels(), lib.NumModels())
	}
	b := NewBlockPlacement(p.NumServers(), lib.NumBlocks())
	for m := 0; m < p.NumServers(); m++ {
		for _, i := range p.ModelsOn(m) {
			for _, j := range lib.ModelBlocks(i) {
				b.Set(m, j)
			}
		}
	}
	return b, nil
}

// ModelView converts a block-level placement Y back to the model view via
// x_{m,i} = Π_{j∈Ji} y_{m,j}: a model counts as cached on a server exactly
// when every one of its blocks is stored there.
func ModelView(lib *modellib.Library, b *BlockPlacement) (*Placement, error) {
	if lib == nil || b == nil {
		return nil, fmt.Errorf("placement: library and block placement are required")
	}
	if b.NumBlocks() != lib.NumBlocks() {
		return nil, fmt.Errorf("placement: block placement has %d blocks, library %d",
			b.NumBlocks(), lib.NumBlocks())
	}
	p := NewPlacement(b.NumServers(), lib.NumModels())
	for m := 0; m < b.NumServers(); m++ {
		for i := 0; i < lib.NumModels(); i++ {
			complete := true
			for _, j := range lib.ModelBlocks(i) {
				if !b.Has(m, j) {
					complete = false
					break
				}
			}
			if complete {
				p.Set(m, i)
			}
		}
	}
	return p, nil
}

// TestBlockViewStorageConsistencyAcrossAlgorithms: for every algorithm's
// output, the P1.2 block-view storage must equal the P1.1 deduplicated
// storage on every server — the paper's constraint equivalence, end to end.
func TestBlockViewStorageConsistencyAcrossAlgorithms(t *testing.T) {
	e := buildEval(t, 10, 30, 6, 21)
	lib := e.Instance().Library()
	caps := UniformCapacities(10, 600_000_000)
	for _, name := range []string{"spec", "gen", "gen-ratio", "independent", "popularity"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := alg.Place(e, caps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y, err := BlockView(lib, p)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < p.NumServers(); m++ {
			want, err := e.ServerStorage(p, m)
			if err != nil {
				t.Fatal(err)
			}
			if got := y.StorageBytes(lib, m); got != want {
				t.Fatalf("%s server %d: block view %d != model view %d", name, m, got, want)
			}
		}
	}
}
