package libgen

import (
	"testing"

	"trimcaching/internal/rng"
)

func TestResNetLayerCounts(t *testing.T) {
	// The paper's freeze ranges imply the per-family trainable-layer counts
	// (counting conv, BN, and FC parameter layers, torchvision layout):
	// ResNet-18: 41, ResNet-34: 73, ResNet-50: 107. Each freeze max must
	// stay strictly below the layer count (the head is never frozen).
	cases := []struct {
		v    ResNetVariant
		want int
	}{
		{ResNet18, 41},
		{ResNet34, 73},
		{ResNet50, 107},
	}
	for _, c := range cases {
		layers, err := ResNetLayers(c.v, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(layers) != c.want {
			t.Fatalf("%s: %d layers, want %d", c.v, len(layers), c.want)
		}
		fr, err := PaperFreezeRange(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Max >= len(layers) {
			t.Fatalf("%s: freeze max %d >= layer count %d", c.v, fr.Max, len(layers))
		}
		if fr.Min <= 0 || fr.Min > fr.Max {
			t.Fatalf("%s: bad freeze range %+v", c.v, fr)
		}
	}
}

// totalParams sums the parameter counts of layers.
func totalParams(layers []Layer) int64 {
	var total int64
	for _, l := range layers {
		total += l.Params
	}
	return total
}

func TestResNetParamTotals(t *testing.T) {
	// Reference torchvision parameter counts with a 1000-class head:
	// ResNet-18 ≈ 11.69M, ResNet-34 ≈ 21.80M, ResNet-50 ≈ 25.56M.
	cases := []struct {
		v      ResNetVariant
		wantM  float64
		within float64
	}{
		{ResNet18, 11.69, 0.05},
		{ResNet34, 21.80, 0.05},
		{ResNet50, 25.56, 0.05},
	}
	for _, c := range cases {
		layers, err := ResNetLayers(c.v, 1000)
		if err != nil {
			t.Fatal(err)
		}
		gotM := float64(totalParams(layers)) / 1e6
		if gotM < c.wantM*(1-c.within) || gotM > c.wantM*(1+c.within) {
			t.Fatalf("%s: %.2fM params, want ~%.2fM", c.v, gotM, c.wantM)
		}
	}
}

func TestResNetLayersOrderedBottomUp(t *testing.T) {
	layers, err := ResNetLayers(ResNet50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if layers[0].Label != "conv1" || layers[1].Label != "bn1" {
		t.Fatalf("first layers: %v %v", layers[0].Label, layers[1].Label)
	}
	if layers[len(layers)-1].Label != "fc" {
		t.Fatalf("last layer: %v", layers[len(layers)-1].Label)
	}
	for _, l := range layers {
		if l.Params <= 0 {
			t.Fatalf("layer %s has %d params", l.Label, l.Params)
		}
	}
}

func TestResNetLayersInvalid(t *testing.T) {
	if _, err := ResNetLayers(ResNetVariant(99), 100); err == nil {
		t.Fatal("unknown variant must error")
	}
	if _, err := ResNetLayers(ResNet18, 0); err == nil {
		t.Fatal("zero classes must error")
	}
	if _, err := PaperFreezeRange(ResNetVariant(99)); err == nil {
		t.Fatal("unknown variant must error")
	}
}

func TestCIFAR100Structure(t *testing.T) {
	if len(CIFAR100Superclasses) != 20 {
		t.Fatalf("%d superclasses, want 20", len(CIFAR100Superclasses))
	}
	for s, classes := range CIFAR100Superclasses {
		if len(classes) != 5 {
			t.Fatalf("superclass %q has %d classes, want 5", s, len(classes))
		}
	}
	all := CIFAR100Classes()
	if len(all) != 100 {
		t.Fatalf("%d classes, want 100", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c] {
			t.Fatalf("duplicate class %q", c)
		}
		seen[c] = true
	}
	if err := validateTableI(); err != nil {
		t.Fatal(err)
	}
}

func TestTableIShape(t *testing.T) {
	if len(TableI) != 3 {
		t.Fatalf("Table I has %d first-round superclasses, want 3", len(TableI))
	}
	wantSeconds := map[string]int{
		"fruit and vegetables": 2,
		"medium-sized mammals": 5,
		"vehicles 2":           2,
	}
	for first, n := range wantSeconds {
		if got := len(TableI[first]); got != n {
			t.Fatalf("Table I %q maps to %d superclasses, want %d", first, got, n)
		}
	}
}

func TestGenerateSpecialShape(t *testing.T) {
	src := rng.New(1)
	lib, err := GenerateSpecial(DefaultSpecialConfig(10), src)
	if err != nil {
		t.Fatal(err)
	}
	if lib.NumModels() != 30 {
		t.Fatalf("models = %d, want 30", lib.NumModels())
	}
	st := lib.Stats()
	if st.DistinctFamilies != 3 {
		t.Fatalf("families = %d", st.DistinctFamilies)
	}
	// Sharing must save a substantial fraction of storage: the paper's
	// premise is that a large share of each model is frozen pre-trained
	// layers.
	if st.SharingRatio > 0.85 {
		t.Fatalf("sharing ratio %v: library barely shares", st.SharingRatio)
	}
	if st.MeanSharedFrac < 0.3 {
		t.Fatalf("mean shared fraction %v too low", st.MeanSharedFrac)
	}
}

func TestGenerateSpecialFixedSharedBlocks(t *testing.T) {
	// Special case: the number of shared blocks must NOT grow with the
	// library scale (it is bounded by the pre-trained prefix lengths).
	small, err := GenerateSpecial(DefaultSpecialConfig(10), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	large, err := GenerateSpecial(DefaultSpecialConfig(100), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	smallShared := small.Stats().NumSharedBlocks
	largeShared := large.Stats().NumSharedBlocks
	// Bound: sum of the paper's freeze maxima = 40 + 72 + 106 = 218.
	if largeShared > 218 {
		t.Fatalf("shared blocks %d exceed pre-trained prefix bound 218", largeShared)
	}
	if largeShared > smallShared*2 {
		t.Fatalf("shared blocks grew with library scale: %d -> %d", smallShared, largeShared)
	}
}

func TestGenerateSpecialFreezeDepths(t *testing.T) {
	src := rng.New(4)
	lib, err := GenerateSpecial(DefaultSpecialConfig(20), src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lib.NumModels(); i++ {
		m := lib.Model(i)
		var fam ResNetVariant
		switch m.Family {
		case "resnet18":
			fam = ResNet18
		case "resnet34":
			fam = ResNet34
		case "resnet50":
			fam = ResNet50
		default:
			t.Fatalf("unknown family %q", m.Family)
		}
		layers, err := ResNetLayers(fam, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Blocks) != len(layers) {
			t.Fatalf("model %d has %d blocks, want %d (one per layer)", i, len(m.Blocks), len(layers))
		}
	}
}

func TestGenerateSpecialModelSizesMatchArchitecture(t *testing.T) {
	src := rng.New(5)
	cfg := DefaultSpecialConfig(5)
	lib, err := GenerateSpecial(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := map[string]int64{}
	for _, v := range cfg.Families {
		layers, err := ResNetLayers(v, cfg.NumClasses)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes[v.String()] = totalParams(layers) * cfg.BytesPerParam
	}
	for i := 0; i < lib.NumModels(); i++ {
		m := lib.Model(i)
		if got, want := lib.ModelSize(i), wantBytes[m.Family]; got != want {
			t.Fatalf("model %d (%s) size %d, want %d", i, m.Family, got, want)
		}
	}
}

func TestGenerateSpecialInvalidConfigs(t *testing.T) {
	src := rng.New(6)
	bad := []SpecialConfig{
		{},
		{Families: []ResNetVariant{ResNet18}, ModelsPerFamily: 0, NumClasses: 100, BytesPerParam: 4},
		{Families: []ResNetVariant{ResNet18}, ModelsPerFamily: 5, NumClasses: 0, BytesPerParam: 4},
		{Families: []ResNetVariant{ResNet18}, ModelsPerFamily: 5, NumClasses: 100, BytesPerParam: 0},
		{Families: nil, ModelsPerFamily: 5, NumClasses: 100, BytesPerParam: 4},
		{Families: []ResNetVariant{ResNetVariant(42)}, ModelsPerFamily: 5, NumClasses: 100, BytesPerParam: 4},
	}
	for i, cfg := range bad {
		if _, err := GenerateSpecial(cfg, src); err == nil {
			t.Fatalf("config %d: expected error", i)
		}
	}
}

func TestGenerateSpecialDeterministic(t *testing.T) {
	a, err := GenerateSpecial(DefaultSpecialConfig(10), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSpecial(DefaultSpecialConfig(10), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() != b.NumBlocks() {
		t.Fatal("same seed produced different libraries")
	}
	for i := 0; i < a.NumModels(); i++ {
		if a.ModelSize(i) != b.ModelSize(i) || a.SharedSize(i) != b.SharedSize(i) {
			t.Fatalf("same seed, model %d differs", i)
		}
	}
}

func TestGenerateGeneralShape(t *testing.T) {
	cfg := DefaultGeneralConfig()
	lib, err := GenerateGeneral(cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	// Per family: 3 parents + 2 variants × 5 classes × (2+5+2) superclasses
	// = 3 + 90 = 93; three families = 279.
	if lib.NumModels() != 279 {
		t.Fatalf("models = %d, want 279", lib.NumModels())
	}
	st := lib.Stats()
	if st.SharingRatio >= 1 {
		t.Fatalf("sharing ratio %v", st.SharingRatio)
	}
}

func TestGenerateGeneralSharedBlocksScaleWithLibrary(t *testing.T) {
	// General case: more first-round superclasses (more parents) must mean
	// more shared blocks — sharing scales with the library.
	small := DefaultGeneralConfig()
	small.FirstRound = []string{"fruit and vegetables"}
	libSmall, err := GenerateGeneral(small, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	libLarge, err := GenerateGeneral(DefaultGeneralConfig(), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if libLarge.Stats().NumSharedBlocks <= libSmall.Stats().NumSharedBlocks {
		t.Fatalf("shared blocks did not grow: %d -> %d",
			libSmall.Stats().NumSharedBlocks, libLarge.Stats().NumSharedBlocks)
	}
}

func TestGenerateGeneralChildrenShareParentPrefix(t *testing.T) {
	cfg := DefaultGeneralConfig()
	cfg.Families = []ResNetVariant{ResNet18}
	cfg.FirstRound = []string{"fruit and vegetables"}
	cfg.VariantsPerClass = 1
	lib, err := GenerateGeneral(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Model 0 is the parent; children must share a prefix of its blocks.
	parent := lib.Model(0)
	if parent.Name != "resnet18/fruit and vegetables/parent" {
		t.Fatalf("model 0 = %q, want the parent", parent.Name)
	}
	parentSet := map[int]bool{}
	for _, j := range parent.Blocks {
		parentSet[j] = true
	}
	for i := 1; i < lib.NumModels(); i++ {
		var sharedWithParent int
		for _, j := range lib.Model(i).Blocks {
			if parentSet[j] {
				sharedWithParent++
			}
		}
		fr, err := PaperFreezeRange(ResNet18)
		if err != nil {
			t.Fatal(err)
		}
		if sharedWithParent < fr.Min || sharedWithParent > fr.Max {
			t.Fatalf("child %d shares %d blocks with parent, want in [%d,%d]",
				i, sharedWithParent, fr.Min, fr.Max)
		}
	}
}

func TestGenerateGeneralInvalidConfigs(t *testing.T) {
	base := DefaultGeneralConfig()
	muts := []func(*GeneralConfig){
		func(c *GeneralConfig) { c.Families = nil },
		func(c *GeneralConfig) { c.FirstRound = nil },
		func(c *GeneralConfig) { c.FirstRound = []string{"no such superclass"} },
		func(c *GeneralConfig) { c.VariantsPerClass = 0 },
		func(c *GeneralConfig) { c.NumClasses = 0 },
		func(c *GeneralConfig) { c.BytesPerParam = 0 },
	}
	for i, mut := range muts {
		cfg := base
		mut(&cfg)
		if _, err := GenerateGeneral(cfg, rng.New(12)); err == nil {
			t.Fatalf("mutation %d: expected error", i)
		}
	}
}

func TestGenerateLoRA(t *testing.T) {
	lib, err := GenerateLoRA(DefaultLoRAConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	if lib.NumModels() != 50 {
		t.Fatalf("models = %d", lib.NumModels())
	}
	st := lib.Stats()
	// With 50 adapters at 0.5%, almost all storage is shared: the unique
	// bytes should be a tiny fraction of the naive sum.
	if st.SharingRatio > 0.05 {
		t.Fatalf("LoRA sharing ratio %v, want < 0.05", st.SharingRatio)
	}
	for i := 0; i < lib.NumModels(); i++ {
		if lib.SpecificSize(i) <= 0 {
			t.Fatalf("model %d has no specific adapter block", i)
		}
		if lib.SharedSize(i) < 90*lib.SpecificSize(i) {
			t.Fatalf("model %d: shared %d vs specific %d — adapter too large",
				i, lib.SharedSize(i), lib.SpecificSize(i))
		}
	}
}

func TestGenerateLoRASingleAdapter(t *testing.T) {
	lib, err := GenerateLoRA(DefaultLoRAConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if lib.NumModels() != 1 {
		t.Fatalf("models = %d", lib.NumModels())
	}
	// With one model nothing is shared by definition.
	if got := lib.Stats().NumSharedBlocks; got != 0 {
		t.Fatalf("single-adapter library has %d shared blocks", got)
	}
}

func TestGenerateLoRAInvalid(t *testing.T) {
	bad := []LoRAConfig{
		{},
		{FoundationParams: 100, NumLayers: 4, NumAdapters: 2, AdapterFraction: 0, BytesPerParam: 2},
		{FoundationParams: 100, NumLayers: 4, NumAdapters: 2, AdapterFraction: 1.5, BytesPerParam: 2},
		{FoundationParams: 100, NumLayers: 4, NumAdapters: 2, AdapterFraction: 0.01, BytesPerParam: 0},
		{FoundationParams: 2, NumLayers: 4, NumAdapters: 2, AdapterFraction: 0.01, BytesPerParam: 2},
	}
	for i, cfg := range bad {
		if _, err := GenerateLoRA(cfg); err == nil {
			t.Fatalf("config %d: expected error", i)
		}
	}
}

func TestSubset(t *testing.T) {
	lib, err := GenerateSpecial(DefaultSpecialConfig(10), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subset(lib, []int{0, 5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumModels() != 3 {
		t.Fatalf("subset models = %d", sub.NumModels())
	}
	wants := []int{0, 5, 20}
	for i, orig := range wants {
		if sub.ModelSize(i) != lib.ModelSize(orig) {
			t.Fatalf("subset model %d size %d != original %d", i, sub.ModelSize(i), lib.ModelSize(orig))
		}
		if sub.Model(i).Name != lib.Model(orig).Name {
			t.Fatalf("subset model %d name mismatch", i)
		}
	}
	// Sharing within the subset must be preserved: models 0 and 5 are both
	// resnet18 and share the pre-trained prefix.
	union := sub.BlocksUnion([]int{0, 1}, nil)
	if union >= sub.ModelSize(0)+sub.ModelSize(1) {
		t.Fatal("subset lost sharing between same-family models")
	}
}

func TestSubsetInvalid(t *testing.T) {
	lib, err := GenerateSpecial(DefaultSpecialConfig(2), rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][]int{nil, {-1}, {lib.NumModels()}, {0, 0}} {
		if _, err := Subset(lib, ids); err == nil {
			t.Fatalf("Subset(%v): expected error", ids)
		}
	}
}

func TestTakeStratified(t *testing.T) {
	lib, err := GenerateSpecial(DefaultSpecialConfig(100), rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := TakeStratified(lib, 30, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumModels() != 30 {
		t.Fatalf("took %d models", sub.NumModels())
	}
	// Stratification: 10 per family.
	counts := map[string]int{}
	for i := 0; i < sub.NumModels(); i++ {
		counts[sub.Model(i).Family]++
	}
	for fam, n := range counts {
		if n != 10 {
			t.Fatalf("family %s has %d models, want 10", fam, n)
		}
	}
}

func TestTakeStratifiedInvalid(t *testing.T) {
	lib, err := GenerateSpecial(DefaultSpecialConfig(2), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TakeStratified(lib, 0, rng.New(18)); err == nil {
		t.Fatal("take 0 must error")
	}
	if _, err := TakeStratified(lib, lib.NumModels()+1, rng.New(19)); err == nil {
		t.Fatal("take > size must error")
	}
}
