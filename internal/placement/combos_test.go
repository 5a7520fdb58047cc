package placement

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"trimcaching/internal/bitset"
	"trimcaching/internal/libgen"
	"trimcaching/internal/modellib"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// chainLib builds a miniature special-case library: two "pre-trained"
// chains (like Fig. 3). Family A: shared blocks 0,1,2 (prefix chain);
// family B: shared blocks 3,4. Specific blocks 5..9.
func chainLib(t *testing.T) *modellib.Library {
	t.Helper()
	blocks := []modellib.Block{
		{ID: 0, SizeBytes: 10}, {ID: 1, SizeBytes: 10}, {ID: 2, SizeBytes: 10},
		{ID: 3, SizeBytes: 20}, {ID: 4, SizeBytes: 20},
		{ID: 5, SizeBytes: 5}, {ID: 6, SizeBytes: 5}, {ID: 7, SizeBytes: 5},
		{ID: 8, SizeBytes: 5}, {ID: 9, SizeBytes: 5},
		{ID: 10, SizeBytes: 5}, {ID: 11, SizeBytes: 5},
	}
	// Two models per maximal depth so every chain block is genuinely shared.
	models := []modellib.Model{
		{ID: 0, Family: "A", Blocks: []int{0, 1, 5}},     // freeze depth 2
		{ID: 1, Family: "A", Blocks: []int{0, 1, 2, 6}},  // freeze depth 3
		{ID: 2, Family: "A", Blocks: []int{0, 7}},        // freeze depth 1
		{ID: 3, Family: "B", Blocks: []int{3, 4, 8}},     // freeze depth 2
		{ID: 4, Family: "B", Blocks: []int{3, 9}},        // freeze depth 1
		{ID: 5, Family: "A", Blocks: []int{0, 1, 2, 10}}, // freeze depth 3
		{ID: 6, Family: "B", Blocks: []int{3, 4, 11}},    // freeze depth 2
	}
	lib, err := modellib.New(blocks, models)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func allModels(lib *modellib.Library) []int {
	ids := make([]int, lib.NumModels())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// comboBlockIDs expands a packed combination back to its sorted block IDs.
func comboBlockIDs(lib *modellib.Library, s bitset.Set) []int {
	var shared []int
	for j := 0; j < lib.NumBlocks(); j++ {
		if lib.IsShared(j) {
			shared = append(shared, j)
		}
	}
	var ids []int
	s.ForEach(func(b int) { ids = append(ids, shared[b]) })
	return ids
}

// ---- the sorted-slice reference --------------------------------------------
//
// The enumeration of A and Spec as they were before shared-block
// combinations were packed into words: combinations as sorted block-ID
// slices, a string key per union, and a merge per union and subset test.
// The packed enumeration and TrimCachingSpec are pinned to these.

// sortedCombo is a combination as a sorted block-ID slice.
type sortedCombo struct {
	blocks []int
	size   int64
}

// comboKey canonically encodes a sorted block-ID set.
func comboKey(blocks []int) string {
	buf := make([]byte, 0, 4*len(blocks))
	for _, j := range blocks {
		buf = append(buf, byte(j), byte(j>>8), byte(j>>16), byte(j>>24))
	}
	return string(buf)
}

// unionSorted merges two sorted int sets.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// isSubsetSorted reports a ⊆ b for sorted int sets.
func isSubsetSorted(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// enumerateCombosSorted is the reference enumeration of A.
func enumerateCombosSorted(lib *modellib.Library, models []int, maxBytes int64, maxCombos int) ([]sortedCombo, error) {
	if maxCombos <= 0 {
		return nil, fmt.Errorf("placement: maxCombos must be positive, got %d", maxCombos)
	}
	blockSize := func(blocks []int) int64 {
		var s int64
		for _, j := range blocks {
			s += lib.BlockSize(j)
		}
		return s
	}

	// Distinct non-empty footprints that individually fit.
	seenFP := map[string]bool{}
	var footprints [][]int
	for _, i := range models {
		fp := lib.SharedFootprint(i)
		if len(fp) == 0 {
			continue
		}
		key := comboKey(fp)
		if seenFP[key] {
			continue
		}
		seenFP[key] = true
		if blockSize(fp) <= maxBytes {
			footprints = append(footprints, fp)
		}
	}
	// Larger footprints first tends to collapse chains quickly.
	sort.Slice(footprints, func(a, b int) bool { return len(footprints[a]) > len(footprints[b]) })

	result := []sortedCombo{{blocks: nil, size: 0}}
	seen := map[string]bool{comboKey(nil): true}
	frontier := [][]int{nil}
	for len(frontier) > 0 {
		var next [][]int
		for _, base := range frontier {
			for _, fp := range footprints {
				u := unionSorted(base, fp)
				if len(u) == len(base) {
					continue // fp ⊆ base, nothing new
				}
				key := comboKey(u)
				if seen[key] {
					continue
				}
				seen[key] = true
				size := blockSize(u)
				if size > maxBytes {
					continue
				}
				result = append(result, sortedCombo{blocks: u, size: size})
				if len(result) > maxCombos {
					return nil, &ErrComboExplosion{Limit: maxCombos}
				}
				next = append(next, u)
			}
		}
		frontier = next
	}
	return result, nil
}

// trimCachingSpecSorted is the reference Spec: Algorithm 1 over the
// sorted-slice enumeration and subset test.
func trimCachingSpecSorted(e *Evaluator, capacities []int64, opts SpecOptions) (*Placement, error) {
	maxCombos := opts.MaxCombos
	if maxCombos == 0 {
		maxCombos = 1 << 20
	}
	ins := e.Instance()
	lib := ins.Library()
	M, I := ins.NumServers(), ins.NumModels()
	uw := ins.UserMaskWords()
	placed := NewPlacement(M, I)
	covered := make([]uint64, I*uw)
	scratch := &dpScratch{}
	for m := 0; m < M; m++ {
		u := make([]float64, I)
		var eligible []int
		for i := 0; i < I; i++ {
			if cov := bitset.Set(covered[i*uw : (i+1)*uw]); !cov.Any() {
				u[i] = e.BaseGain(m, i)
			} else {
				u[i] = e.maskMass(i, ins.UserMask(m, i), cov)
			}
			if u[i] > gainTolerance {
				eligible = append(eligible, i)
			}
		}
		if len(eligible) == 0 {
			continue
		}
		combos, err := enumerateCombosSorted(lib, eligible, capacities[m], maxCombos)
		if err != nil {
			return nil, fmt.Errorf("placement: server %d: %w", m, err)
		}
		var bestModels []int
		bestValue := 0.0
		items := make([]knapsackItem, 0, len(eligible))
		for _, c := range combos {
			items = items[:0]
			var ubValue float64
			for _, i := range eligible {
				if isSubsetSorted(lib.SharedFootprint(i), c.blocks) {
					items = append(items, knapsackItem{id: i, value: u[i], weight: lib.SpecificSize(i)})
					ubValue += u[i]
				}
			}
			if len(items) == 0 || ubValue <= bestValue {
				continue
			}
			capRem := capacities[m] - c.size
			if fractionalBound(items, capRem) <= bestValue {
				continue
			}
			chosen, value := solveKnapsack(items, capRem, opts.Epsilon, scratch)
			if value > bestValue {
				bestValue = value
				bestModels = chosen
			}
		}
		for _, i := range bestModels {
			placed.Set(m, i)
			bitset.Set(covered[i*uw : (i+1)*uw]).Or(ins.UserMask(m, i))
		}
	}
	return placed, nil
}

// ---- pins ------------------------------------------------------------------

// allSharedLib builds a library of 12 unit blocks that every model shares,
// so in its shared index bit b is block b, and returns a packer from block
// IDs to that index's words.
func allSharedLib(t *testing.T) (*modellib.Library, func([]int) bitset.Set) {
	t.Helper()
	const n = 12
	blocks := make([]modellib.Block, n)
	all := make([]int, n)
	for j := range blocks {
		blocks[j] = modellib.Block{ID: j, SizeBytes: 1}
		all[j] = j
	}
	lib, err := modellib.New(blocks, []modellib.Model{{ID: 0, Blocks: all}, {ID: 1, Blocks: all}})
	if err != nil {
		t.Fatal(err)
	}
	x := newSharedIndex(lib)
	pack := func(ids []int) bitset.Set {
		s := make(bitset.Set, x.words)
		for _, j := range ids {
			s.Set(j)
		}
		return s
	}
	return lib, pack
}

// TestUnionSorted checks the reference merge and the word OR the packed
// enumeration uses for a union on the same hand-made cases.
func TestUnionSorted(t *testing.T) {
	lib, pack := allSharedLib(t)
	cases := []struct {
		a, b, want []int
	}{
		{nil, nil, []int{}},
		{[]int{1, 3}, []int{2}, []int{1, 2, 3}},
		{[]int{1, 2}, []int{1, 2}, []int{1, 2}},
		{[]int{5}, nil, []int{5}},
		{[]int{1, 4, 9}, []int{2, 4, 10}, []int{1, 2, 4, 9, 10}},
	}
	for _, c := range cases {
		if got := unionSorted(c.a, c.b); !slices.Equal(got, c.want) {
			t.Fatalf("unionSorted(%v,%v) = %v", c.a, c.b, got)
		}
		packed := pack(c.a)
		packed.Or(pack(c.b))
		if got := comboBlockIDs(lib, packed); !slices.Equal(got, c.want) {
			t.Fatalf("packed union(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

// TestIsSubsetSorted checks the reference subset test and the word
// SubsetOf the packed Spec uses for ⊆ on the same hand-made cases.
func TestIsSubsetSorted(t *testing.T) {
	_, pack := allSharedLib(t)
	cases := []struct {
		a, b []int
		want bool
	}{
		{nil, nil, true},
		{nil, []int{1}, true},
		{[]int{1}, nil, false},
		{[]int{1, 3}, []int{1, 2, 3}, true},
		{[]int{1, 4}, []int{1, 2, 3}, false},
		{[]int{2}, []int{1, 2, 3}, true},
	}
	for _, c := range cases {
		if got := isSubsetSorted(c.a, c.b); got != c.want {
			t.Fatalf("isSubsetSorted(%v,%v) = %v", c.a, c.b, got)
		}
		if got := pack(c.a).SubsetOf(pack(c.b)); got != c.want {
			t.Fatalf("packed subset(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestEnumerateCombosChains(t *testing.T) {
	lib := chainLib(t)
	combos, err := enumerateCombos(newSharedIndex(lib), allModels(lib), 1<<40, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct footprints: A-depth1 {0}, A-depth2 {0,1}, A-depth3 {0,1,2},
	// B-depth1 {3}, B-depth2 {3,4}. Union closure = (3+1)*(2+1) = 12
	// combos including the empty one.
	if len(combos) != 12 {
		t.Fatalf("got %d combos, want 12", len(combos))
	}
	// Every combo must be a union of per-family prefixes with correct size.
	for _, c := range combos {
		var want int64
		for _, j := range comboBlockIDs(lib, c.blocks) {
			want += lib.BlockSize(j)
		}
		if c.size != want {
			t.Fatalf("combo %v size %d, want %d", comboBlockIDs(lib, c.blocks), c.size, want)
		}
	}
	// The empty combo must be present.
	if combos[0].size != 0 || combos[0].blocks.Any() {
		t.Fatalf("first combo not empty: %+v", combos[0])
	}
}

func TestEnumerateCombosCapacityPruning(t *testing.T) {
	lib := chainLib(t)
	// Budget 25: fits A-depth1 (10), A-depth2 (20), B-depth1 (20),
	// but not A-depth3 (30), B-depth2 (40), or any cross-family union
	// except none (10+20=30 > 25).
	combos, err := enumerateCombos(newSharedIndex(lib), allModels(lib), 25, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 // {}, {0}, {0,1}, {3}
	if len(combos) != want {
		t.Fatalf("got %d combos, want %d", len(combos), want)
	}
	for _, c := range combos {
		if c.size > 25 {
			t.Fatalf("combo %v exceeds budget", comboBlockIDs(lib, c.blocks))
		}
	}
}

func TestEnumerateCombosEligibleSubset(t *testing.T) {
	lib := chainLib(t)
	// Only family-A models eligible: B footprints must not appear.
	combos, err := enumerateCombos(newSharedIndex(lib), []int{0, 1, 2}, 1<<40, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 4 { // {}, {0}, {0,1}, {0,1,2}
		t.Fatalf("got %d combos, want 4", len(combos))
	}
	for _, c := range combos {
		for _, j := range comboBlockIDs(lib, c.blocks) {
			if j >= 3 {
				t.Fatalf("family-B block %d leaked into combos", j)
			}
		}
	}
}

func TestEnumerateCombosExplosion(t *testing.T) {
	// A library with many disjoint shared pairs has an exponential closure.
	var blocks []modellib.Block
	var models []modellib.Model
	for g := 0; g < 12; g++ {
		shared := len(blocks)
		blocks = append(blocks, modellib.Block{ID: shared, SizeBytes: 1})
		s1 := len(blocks)
		blocks = append(blocks, modellib.Block{ID: s1, SizeBytes: 1})
		s2 := len(blocks)
		blocks = append(blocks, modellib.Block{ID: s2, SizeBytes: 1})
		models = append(models,
			modellib.Model{ID: len(models), Blocks: []int{shared, s1}},
			modellib.Model{ID: len(models) + 1, Blocks: []int{shared, s2}},
		)
	}
	lib, err := modellib.New(blocks, models)
	if err != nil {
		t.Fatal(err)
	}
	x := newSharedIndex(lib)
	_, err = enumerateCombos(x, allModels(lib), 1<<40, 100)
	var explosion *ErrComboExplosion
	if !errors.As(err, &explosion) {
		t.Fatalf("want ErrComboExplosion, got %v", err)
	}
	if explosion.Limit != 100 {
		t.Fatalf("limit %d", explosion.Limit)
	}
	if explosion.Error() == "" {
		t.Fatal("empty error string")
	}
	// The closure has 2^12 combos, the empty one included: a limit of
	// exactly that succeeds, one less explodes.
	combos, err := enumerateCombos(x, allModels(lib), 1<<40, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 1<<12 {
		t.Fatalf("got %d combos, want %d", len(combos), 1<<12)
	}
	if _, err := enumerateCombos(x, allModels(lib), 1<<40, 1<<12-1); !errors.As(err, &explosion) {
		t.Fatalf("limit one below the closure: want ErrComboExplosion, got %v", err)
	}
}

func TestEnumerateCombosNoSharing(t *testing.T) {
	blocks := []modellib.Block{{ID: 0, SizeBytes: 1}, {ID: 1, SizeBytes: 1}}
	models := []modellib.Model{
		{ID: 0, Blocks: []int{0}},
		{ID: 1, Blocks: []int{1}},
	}
	lib, err := modellib.New(blocks, models)
	if err != nil {
		t.Fatal(err)
	}
	combos, err := enumerateCombos(newSharedIndex(lib), allModels(lib), 1<<40, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 1 {
		t.Fatalf("library without sharing should have only the empty combo, got %d", len(combos))
	}
}

func TestEnumerateCombosInvalidLimit(t *testing.T) {
	lib := chainLib(t)
	if _, err := enumerateCombos(newSharedIndex(lib), allModels(lib), 100, 0); err == nil {
		t.Fatal("zero maxCombos must error")
	}
}

// sameCombos reports the first difference between a packed enumeration and
// the reference one: order, blocks and sizes must all agree.
func sameCombos(lib *modellib.Library, got []combo, want []sortedCombo) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d combos, reference %d", len(got), len(want))
	}
	for n := range want {
		ids := comboBlockIDs(lib, got[n].blocks)
		if !slices.Equal(ids, want[n].blocks) {
			return fmt.Errorf("combo %d = %v, reference %v", n, ids, want[n].blocks)
		}
		if got[n].size != want[n].size {
			return fmt.Errorf("combo %d size %d, reference %d", n, got[n].size, want[n].size)
		}
	}
	return nil
}

// tiedFootprintLib builds 14 disjoint shared footprints of 1, 2 or 3 unit
// blocks in an unsorted order, each shared by two models.
func tiedFootprintLib(t *testing.T) *modellib.Library {
	t.Helper()
	var blocks []modellib.Block
	var models []modellib.Model
	block := func() int {
		blocks = append(blocks, modellib.Block{ID: len(blocks), SizeBytes: 1})
		return len(blocks) - 1
	}
	for f := 0; f < 14; f++ {
		fp := make([]int, (f*7)%3+1)
		for b := range fp {
			fp[b] = block()
		}
		for v := 0; v < 2; v++ {
			models = append(models, modellib.Model{ID: len(models), Blocks: append(slices.Clone(fp), block())})
		}
	}
	lib, err := modellib.New(blocks, models)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestEnumerateCombosMatchesOracle pins the packed enumeration to the
// sorted-slice reference: the same combinations in the same order with the
// same sizes, or the same explosion error. Trials alternate between random
// special-case libraries and random draws from a general-case library,
// whose parallel chains tie in block count, so the unstable footprint sort
// meets ties. Each trial takes a random eligible subset in random order, a
// random capacity and a random limit.
func TestEnumerateCombosMatchesOracle(t *testing.T) {
	// Past 12 elements sort.Slice is not stable, so footprints that tie in
	// block count can leave it in an order no stable sort gives; the packed
	// enumeration must keep the reference's.
	tied := tiedFootprintLib(t)
	want, err := enumerateCombosSorted(tied, allModels(tied), 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enumerateCombos(newSharedIndex(tied), allModels(tied), 3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCombos(tied, got, want); err != nil {
		t.Fatalf("tied footprints: %v", err)
	}

	const trials = 120
	general, err := libgen.GenerateGeneral(libgen.DefaultGeneralConfig(), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(13)
	specialLimits := []int{1, 3, 10, 50, 200, 1 << 20}
	// General-case closures grow exponentially: small limits keep the
	// reference quick to give up.
	generalLimits := []int{1, 3, 10, 50, 200, 2000}
	explosions := 0
	for trial := 0; trial < trials; trial++ {
		pool, limits := general, generalLimits
		if trial%2 == 0 {
			pool, err = libgen.GenerateSpecial(libgen.DefaultSpecialConfig(src.IntRange(1, 30)), src.SplitIndex("pool", trial))
			if err != nil {
				t.Fatal(err)
			}
			limits = specialLimits
		}
		lib, err := libgen.TakeStratified(pool, src.IntRange(1, min(pool.NumModels(), 40)), src.SplitIndex("take", trial))
		if err != nil {
			t.Fatal(err)
		}
		x := newSharedIndex(lib)
		models := src.Perm(lib.NumModels())[:src.IntRange(1, lib.NumModels())]
		maxBytes := int64(src.Uniform(0, 1.5e9))
		maxCombos := limits[src.Intn(len(limits))]

		want, wantErr := enumerateCombosSorted(lib, models, maxBytes, maxCombos)
		got, gotErr := enumerateCombos(x, models, maxBytes, maxCombos)
		if wantErr != nil {
			var we, ge *ErrComboExplosion
			if !errors.As(wantErr, &we) || !errors.As(gotErr, &ge) || *ge != *we {
				t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
			}
			explosions++
			continue
		}
		if gotErr != nil {
			t.Fatalf("trial %d: error %v, reference none", trial, gotErr)
		}
		if err := sameCombos(lib, got, want); err != nil {
			t.Fatalf("trial %d (%d models, %d eligible, %d bytes): %v", trial, lib.NumModels(), len(models), maxBytes, err)
		}
	}
	if explosions == 0 || explosions == trials {
		t.Fatalf("%d of %d trials exploded; the draw must cover both outcomes", explosions, trials)
	}
}

// specOracleEval draws one small special-case instance for the Spec pin:
// a stratified library of 6–24 models and a 5-server, 20-user topology.
func specOracleEval(t *testing.T, seed uint64) *Evaluator {
	t.Helper()
	src := rng.New(seed)
	pool, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(8), src.Split("pool"))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := libgen.TakeStratified(pool, src.IntRange(6, 24), src.Split("take"))
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	cfg := scenario.GenConfig{
		Topology: topology.Config{AreaSideM: 600, NumServers: 5, NumUsers: 20, CoverageRadiusM: w.CoverageRadiusM},
		Wireless: w,
		Workload: workload.DefaultConfig(),
	}
	ins, err := scenario.Generate(lib, cfg, src.Split("instance"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSpecMatchesOracle pins TrimCachingSpec placements bit-identical to
// the reference Spec over 30 seeds, three capacities and both the exact
// (ε = 0) and the rounding (ε = 0.1) knapsack.
func TestSpecMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		e := specOracleEval(t, seed)
		for _, q := range []int64{200_000_000, 500_000_000, 1_000_000_000} {
			caps := UniformCapacities(e.Instance().NumServers(), q)
			for _, eps := range []float64{0, 0.1} {
				opts := SpecOptions{Epsilon: eps}
				want, err := trimCachingSpecSorted(e, caps, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := TrimCachingSpec(e, caps, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !placementsEqual(got, want) {
					t.Fatalf("seed %d, Q %d, ε %v: placement differs from the reference", seed, q, eps)
				}
			}
		}
	}
}

// TestEnumerateCombosAllocBound pins the enumeration's allocations to the
// combinations it returns rather than to the unions it tries: on the
// place-paper library the closure tries thousands of unions for a few
// hundred combinations, and the packed enumeration allocates only when its
// arena, its table or its result grows.
func TestEnumerateCombosAllocBound(t *testing.T) {
	lib := placePaperLib(t)
	x := newSharedIndex(lib)
	models := allModels(lib)
	combos, err := enumerateCombos(x, models, placePaperCapacity, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := enumerateCombos(x, models, placePaperCapacity, 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if bound := 2 * float64(len(combos)); allocs > bound {
		t.Fatalf("%.0f allocations for %d combos, want at most %.0f", allocs, len(combos), bound)
	}
	t.Logf("%.0f allocations for %d combos", allocs, len(combos))
}
