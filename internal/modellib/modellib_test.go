package modellib

import (
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"

	"trimcaching/internal/rng"
)

// tinyLib builds the running example from Fig. 3 of the paper in miniature:
// two "pre-trained" shared prefixes and three downstream models.
//
//	blocks: 0,1 shared by models 0,1 (sizes 10, 20)
//	        2   shared by models 1,2 (size 5)
//	        3,4,5 specific to models 0,1,2 (sizes 7, 11, 13)
func tinyLib(t *testing.T) *Library {
	t.Helper()
	blocks := []Block{
		{ID: 0, SizeBytes: 10},
		{ID: 1, SizeBytes: 20},
		{ID: 2, SizeBytes: 5},
		{ID: 3, SizeBytes: 7},
		{ID: 4, SizeBytes: 11},
		{ID: 5, SizeBytes: 13},
	}
	models := []Model{
		{ID: 0, Name: "m0", Family: "A", Blocks: []int{0, 1, 3}},
		{ID: 1, Name: "m1", Family: "A", Blocks: []int{0, 1, 2, 4}},
		{ID: 2, Name: "m2", Family: "B", Blocks: []int{2, 5}},
	}
	lib, err := New(blocks, models)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestNewValidation(t *testing.T) {
	okBlocks := []Block{{ID: 0, SizeBytes: 1}}
	okModels := []Model{{ID: 0, Blocks: []int{0}}}
	cases := []struct {
		name    string
		blocks  []Block
		models  []Model
		wantErr error
	}{
		{"empty blocks", nil, okModels, ErrEmptyLibrary},
		{"empty models", okBlocks, nil, ErrEmptyLibrary},
		{"bad block id", []Block{{ID: 1, SizeBytes: 1}}, okModels, ErrBadID},
		{"zero size", []Block{{ID: 0, SizeBytes: 0}}, okModels, ErrBadSize},
		{"negative size", []Block{{ID: 0, SizeBytes: -4}}, okModels, ErrBadSize},
		{"bad model id", okBlocks, []Model{{ID: 2, Blocks: []int{0}}}, ErrBadID},
		{"no blocks in model", okBlocks, []Model{{ID: 0}}, ErrBadBlockRef},
		{"unknown block ref", okBlocks, []Model{{ID: 0, Blocks: []int{3}}}, ErrBadBlockRef},
		{"negative block ref", okBlocks, []Model{{ID: 0, Blocks: []int{-1}}}, ErrBadBlockRef},
		{"duplicate block ref", okBlocks, []Model{{ID: 0, Blocks: []int{0, 0}}}, ErrBadBlockRef},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.blocks, c.models); !errors.Is(err, c.wantErr) {
				t.Fatalf("got %v, want %v", err, c.wantErr)
			}
		})
	}
}

func TestSizes(t *testing.T) {
	lib := tinyLib(t)
	wantSizes := []int64{10 + 20 + 7, 10 + 20 + 5 + 11, 5 + 13}
	for i, want := range wantSizes {
		if got := lib.ModelSize(i); got != want {
			t.Fatalf("ModelSize(%d) = %d, want %d", i, got, want)
		}
	}
	if lib.NumModels() != 3 || lib.NumBlocks() != 6 {
		t.Fatalf("counts %d/%d", lib.NumModels(), lib.NumBlocks())
	}
}

func TestSharingClassification(t *testing.T) {
	lib := tinyLib(t)
	wantShared := map[int]bool{0: true, 1: true, 2: true, 3: false, 4: false, 5: false}
	for j, want := range wantShared {
		if got := lib.IsShared(j); got != want {
			t.Fatalf("IsShared(%d) = %v", j, got)
		}
	}
}

func TestFootprints(t *testing.T) {
	lib := tinyLib(t)
	cases := []struct {
		model      int
		footprint  []int
		sharedSize int64
		specific   int64
	}{
		{0, []int{0, 1}, 30, 7},
		{1, []int{0, 1, 2}, 35, 11},
		{2, []int{2}, 5, 13},
	}
	for _, c := range cases {
		fp := lib.SharedFootprint(c.model)
		if len(fp) != len(c.footprint) {
			t.Fatalf("model %d footprint %v, want %v", c.model, fp, c.footprint)
		}
		for i := range fp {
			if fp[i] != c.footprint[i] {
				t.Fatalf("model %d footprint %v, want %v", c.model, fp, c.footprint)
			}
		}
		if got := lib.SharedSize(c.model); got != c.sharedSize {
			t.Fatalf("SharedSize(%d) = %d, want %d", c.model, got, c.sharedSize)
		}
		if got := lib.SpecificSize(c.model); got != c.specific {
			t.Fatalf("SpecificSize(%d) = %d, want %d", c.model, got, c.specific)
		}
	}
}

func TestBlocksSortedAndCopied(t *testing.T) {
	blocks := []Block{{ID: 0, SizeBytes: 1}, {ID: 1, SizeBytes: 2}}
	input := []int{1, 0}
	models := []Model{{ID: 0, Blocks: input}}
	lib, err := New(blocks, models)
	if err != nil {
		t.Fatal(err)
	}
	got := lib.ModelBlocks(0)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("blocks not sorted: %v", got)
	}
	input[0] = 99 // mutating the caller's slice must not corrupt the library
	if lib.ModelBlocks(0)[0] != 0 && lib.ModelBlocks(0)[1] != 1 {
		t.Fatal("library retained caller's slice")
	}
}

func TestBlocksUnion(t *testing.T) {
	lib := tinyLib(t)
	cases := []struct {
		models []int
		want   int64
	}{
		{nil, 0},
		{[]int{0}, 37},
		{[]int{0, 1}, 10 + 20 + 5 + 7 + 11}, // blocks 0,1 deduplicated
		{[]int{1, 2}, 10 + 20 + 5 + 11 + 13},
		{[]int{0, 1, 2}, 66},
	}
	for _, c := range cases {
		if got := lib.BlocksUnion(c.models, nil); got != c.want {
			t.Fatalf("BlocksUnion(%v) = %d, want %d", c.models, got, c.want)
		}
	}
}

func TestBlocksUnionScratchRestored(t *testing.T) {
	lib := tinyLib(t)
	scratch := make([]bool, lib.NumBlocks())
	_ = lib.BlocksUnion([]int{0, 1, 2}, scratch)
	for j, v := range scratch {
		if v {
			t.Fatalf("scratch[%d] left dirty", j)
		}
	}
}

// Property: union of all models is never larger than the sum of model sizes
// and never smaller than the largest model (submodularity sanity).
func TestBlocksUnionBoundsProperty(t *testing.T) {
	lib := tinyLib(t)
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var models []int
		var sum int64
		var maxSize int64
		for i := 0; i < lib.NumModels(); i++ {
			if src.Float64() < 0.5 {
				models = append(models, i)
				sum += lib.ModelSize(i)
				if lib.ModelSize(i) > maxSize {
					maxSize = lib.ModelSize(i)
				}
			}
		}
		u := lib.BlocksUnion(models, nil)
		return u <= sum && u >= maxSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	lib := tinyLib(t)
	st := lib.Stats()
	if st.NumModels != 3 || st.NumBlocks != 6 || st.NumSharedBlocks != 3 {
		t.Fatalf("stats counts: %+v", st)
	}
	if st.UniqueBytes != 66 {
		t.Fatalf("UniqueBytes = %d", st.UniqueBytes)
	}
	if st.SumModelBytes != 37+46+18 {
		t.Fatalf("SumModelBytes = %d", st.SumModelBytes)
	}
	if st.SharingRatio <= 0 || st.SharingRatio >= 1 {
		t.Fatalf("SharingRatio = %v, want in (0,1) for a sharing library", st.SharingRatio)
	}
	if st.DistinctFamilies != 2 {
		t.Fatalf("DistinctFamilies = %d", st.DistinctFamilies)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	lib := tinyLib(t)
	data, err := json.Marshal(lib)
	if err != nil {
		t.Fatal(err)
	}
	var back Library
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumModels() != lib.NumModels() || back.NumBlocks() != lib.NumBlocks() {
		t.Fatal("round trip changed counts")
	}
	for i := 0; i < lib.NumModels(); i++ {
		if back.ModelSize(i) != lib.ModelSize(i) || back.SharedSize(i) != lib.SharedSize(i) {
			t.Fatalf("round trip changed model %d", i)
		}
	}
}

func TestJSONUnmarshalInvalid(t *testing.T) {
	var lib Library
	if err := json.Unmarshal([]byte(`{"blocks":[],"models":[]}`), &lib); err == nil {
		t.Fatal("expected error for empty library")
	}
	if err := json.Unmarshal([]byte(`{bad`), &lib); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
}
