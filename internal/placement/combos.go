package placement

import (
	"fmt"
	"math/bits"
	"sort"

	"trimcaching/internal/bitset"
	"trimcaching/internal/modellib"
)

// combo is one element N of the paper's set A (§V-B): a set of shared
// parameter blocks an edge server may pre-commit storage to. Models whose
// shared footprint is contained in N become eligible for the per-combination
// knapsack at their specific (residual) size.
type combo struct {
	blocks bitset.Set // shared blocks, packed over a sharedIndex
	size   int64      // d_N: bytes of the combination
}

// ErrComboExplosion reports that the union-closure of shared footprints
// exceeded the configured bound. This is the regime the paper's general
// case describes: the number of shared blocks grows with the library, so
// TrimCaching Spec degrades to exponential enumeration (§VI) and
// TrimCaching Gen should be used instead.
type ErrComboExplosion struct {
	Limit int
}

func (e *ErrComboExplosion) Error() string {
	return fmt.Sprintf("placement: shared-block combinations exceed limit %d; use TrimCaching Gen for this library", e.Limit)
}

// sharedIndex packs a library's shared blocks into dense bit positions so a
// set of shared blocks is a few words: bit b is the b-th shared block in
// ascending ID order. Union is a word OR, subset a word AND-NOT, and equal
// sets have equal words, so the enumeration of A hashes combinations instead
// of allocating a key per union.
type sharedIndex struct {
	words int
	sizes []int64 // sizes[b]: bytes of the block at bit b

	// fp[i*words:(i+1)*words] is model i's packed shared footprint.
	fp []uint64
	// class[i] numbers model i's footprint among the library's distinct
	// non-empty footprints (-1 for an empty one); classes is their count.
	class   []int32
	classes int
	lib     *modellib.Library
}

// newSharedIndex numbers lib's shared blocks and packs every model's shared
// footprint over them.
func newSharedIndex(lib *modellib.Library) *sharedIndex {
	bit := make([]int32, lib.NumBlocks())
	var sizes []int64
	for j := range bit {
		bit[j] = -1
		if lib.IsShared(j) {
			bit[j] = int32(len(sizes))
			sizes = append(sizes, lib.BlockSize(j))
		}
	}
	I := lib.NumModels()
	x := &sharedIndex{
		words: bitset.Words(len(sizes)),
		sizes: sizes,
		class: make([]int32, I),
		lib:   lib,
	}
	x.fp = make([]uint64, I*x.words)
	distinct := newWordSet(x.words)
	for i := 0; i < I; i++ {
		fp := x.footprint(i)
		for _, j := range lib.SharedFootprint(i) {
			fp.Set(int(bit[j]))
		}
		x.class[i] = -1
		if fp.Any() {
			id, _ := distinct.insert(fp)
			x.class[i] = int32(id)
		}
	}
	x.classes = distinct.n
	return x
}

// footprint returns model i's packed shared footprint. It must not be
// modified.
func (x *sharedIndex) footprint(i int) bitset.Set {
	return bitset.Set(x.fp[i*x.words : (i+1)*x.words : (i+1)*x.words])
}

// enumerateCombos builds the set A: the union-closure of the distinct shared
// footprints of the given models, pruned to combinations whose size fits
// maxBytes (a combination that already exceeds the server capacity can never
// be cached, Algorithm 2 lines 4–6). The empty combination is always
// included and comes first. Enumeration aborts with ErrComboExplosion beyond
// maxCombos.
//
// The order of A is part of TrimCaching Spec's contract: Spec keeps the
// first combination that strictly beats its incumbent and prunes against
// that incumbent as it grows, so a reordering can change placements. The
// order is fixed by the distinct footprints in first-seen model order,
// sorted (unstably) by decreasing block count, and a breadth-first closure
// that unions each frontier combination with every footprint in turn. A
// union is marked seen before its size check, so a combination that does
// not fit is never sized twice.
//
// For the paper's special case (models fine-tuned from a few pre-trained
// backbones by prefix freezing) the distinct footprints form a handful of
// nested chains and the closure has polynomial size; for the general case it
// can grow exponentially, matching Proposition 2.
func enumerateCombos(x *sharedIndex, models []int, maxBytes int64, maxCombos int) ([]combo, error) {
	if maxCombos <= 0 {
		return nil, fmt.Errorf("placement: maxCombos must be positive, got %d", maxCombos)
	}

	// Distinct non-empty footprints that individually fit.
	type footprint struct {
		set    bitset.Set
		blocks int
	}
	seenFP := make([]bool, x.classes)
	var footprints []footprint
	for _, i := range models {
		c := x.class[i]
		if c < 0 || seenFP[c] {
			continue
		}
		seenFP[c] = true
		if x.lib.SharedSize(i) <= maxBytes {
			fp := x.footprint(i)
			footprints = append(footprints, footprint{set: fp, blocks: fp.Count()})
		}
	}
	// Larger footprints first tends to collapse chains quickly.
	sort.Slice(footprints, func(a, b int) bool { return footprints[a].blocks > footprints[b].blocks })

	// seen holds every union met so far; fitting ones are listed in found
	// by their id in seen. found[lo:hi] is the BFS frontier.
	type entry struct {
		id   int
		size int64
	}
	seen := newWordSet(x.words)
	u := make(bitset.Set, x.words)
	empty, _ := seen.insert(u)
	found := []entry{{id: empty}}
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, len(found) {
		for f := lo; f < hi; f++ {
			base, baseSize := seen.key(found[f].id), found[f].size
			for _, fp := range footprints {
				var grew uint64
				for w, v := range fp.set {
					u[w] = base[w] | v
					grew |= v &^ base[w]
				}
				if grew == 0 {
					continue // fp ⊆ base, nothing new
				}
				id, added := seen.insert(u)
				if !added {
					continue
				}
				size := baseSize
				for w, v := range fp.set {
					for rem := v &^ base[w]; rem != 0; rem &= rem - 1 {
						size += x.sizes[w<<6|bits.TrailingZeros64(rem)]
					}
				}
				if size > maxBytes {
					continue
				}
				found = append(found, entry{id: id, size: size})
				if len(found) > maxCombos {
					return nil, &ErrComboExplosion{Limit: maxCombos}
				}
			}
		}
	}

	combos := make([]combo, len(found))
	for n, e := range found {
		combos[n] = combo{blocks: seen.key(e.id), size: e.size}
	}
	return combos, nil
}

// wordSet is an insert-only hash set of equal-length word strings (packed
// block sets). Keys sit back to back in one arena and are numbered in
// insertion order, so an insert allocates only when the arena or the table
// grows. A key view stays valid across later inserts: growth copies the
// arena and never rewrites a key.
type wordSet struct {
	words int
	n     int
	keys  []uint64 // key id at keys[id*words:(id+1)*words]
	slots []int32  // open addressing, linear probing: id+1, or 0 if empty
}

func newWordSet(words int) *wordSet {
	return &wordSet{words: words, slots: make([]int32, 64)}
}

// key returns the words of key id. They must not be modified.
func (s *wordSet) key(id int) bitset.Set {
	return bitset.Set(s.keys[id*s.words : (id+1)*s.words : (id+1)*s.words])
}

// insert adds a copy of k unless an equal key is present, and returns the
// key's id and whether it was added.
func (s *wordSet) insert(k bitset.Set) (id int, added bool) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for h := int(hashWords(k)) & mask; ; h = (h + 1) & mask {
		got := int(s.slots[h]) - 1
		if got < 0 {
			s.keys = append(s.keys, k...)
			s.n++
			s.slots[h] = int32(s.n)
			return s.n - 1, true
		}
		if s.key(got).Equal(k) {
			return got, false
		}
	}
}

// grow doubles the table and re-slots every key.
func (s *wordSet) grow() {
	s.slots = make([]int32, 2*len(s.slots))
	mask := len(s.slots) - 1
	for id := 0; id < s.n; id++ {
		h := int(hashWords(s.key(id))) & mask
		for s.slots[h] != 0 {
			h = (h + 1) & mask
		}
		s.slots[h] = int32(id + 1)
	}
}

// hashWords mixes a word string into a table hash.
func hashWords(k []uint64) uint64 {
	h := uint64(len(k))
	for _, w := range k {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}
