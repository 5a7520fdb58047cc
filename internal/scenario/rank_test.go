package scenario

import (
	"math"
	"strings"
	"testing"

	"trimcaching/internal/modellib"
	"trimcaching/internal/rng"
)

// sharedBlockLibrary is the cheapest library of n models: one block that
// every model holds.
func sharedBlockLibrary(t *testing.T, n int) *modellib.Library {
	t.Helper()
	models := make([]modellib.Model, n)
	for i := range models {
		models[i] = modellib.Model{ID: i, Blocks: []int{0}}
	}
	lib, err := modellib.New([]modellib.Block{{ID: 0, SizeBytes: 1 << 20}}, models)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestLibraryLimit pins the rank index's model limit: uint16 orders index
// at most 65,536 models, so a larger library is rejected at construction
// with an error naming the limit, and a library at the limit builds rank
// rows that reach its last model.
func TestLibraryLimit(t *testing.T) {
	_, err := Generate(sharedBlockLibrary(t, maxModels+1), paperGenConfig(1, 1), rng.New(1))
	if err == nil || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("a %d-model library: err = %v, want an error naming the 65536-model limit", maxModels+1, err)
	}
	ins, err := Generate(sharedBlockLibrary(t, maxModels), paperGenConfig(1, 1), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	do, ro, _, _ := ins.UserRankRows(0)
	for _, order := range [][]uint16{do, ro} {
		seen := make([]bool, maxModels)
		for _, i := range order {
			seen[i] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("model %d missing from a rank row at the limit", i)
			}
		}
	}
}

// FuzzRankCutoff pins the rank index's cutoff arithmetic against direct
// compares over one threshold row. The row holds 1–300 thresholds drawn
// the way rateThreshold produces them — sizeBits/slack, +Inf for a slack
// ≤ 0, 0 for an empty model — with ties forced by copying earlier
// entries. The rates are the two fuzzed ones, 0, +Inf and every threshold
// itself, the boundary each compare must get right. buildRankRow must
// return a permutation whose thresholds ascend; searchGreater must count
// the thresholds ≤ x; flipRange must return the ranks of exactly the
// thresholds in (min, max] of a rate change; and each scanRankPrefixes
// snapshot must be the model mask {i : thr[i] ≤ rate}.
func FuzzRankCutoff(f *testing.F) {
	f.Add(uint64(1), uint16(250), uint8(0), 1e6, 5e6)
	f.Add(uint64(2), uint16(0), uint8(1), 0.0, math.Inf(1))
	f.Add(uint64(3), uint16(299), uint8(2), 3e5, 3e5)
	f.Add(uint64(4), uint16(63), uint8(200), -1.0, 1e9)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, ties uint8, a, b float64) {
		if math.IsNaN(a) || math.IsNaN(b) {
			t.Skip("rates are never NaN")
		}
		I := int(n)%300 + 1
		src := rng.New(seed)
		thr := make([]float64, I)
		for i := range thr {
			switch {
			case i > 0 && src.Intn(4) < int(ties%4):
				thr[i] = thr[src.Intn(i)]
			case src.Intn(16) == 0:
				thr[i] = rateThreshold(0, src.Uniform(1, 10))
			default:
				thr[i] = rateThreshold(8*float64(src.IntRange(1, 1<<30)), src.Uniform(-1, 10))
			}
		}
		order := make([]uint16, I)
		buildRankRow(order, thr, make([]rankPair, I))
		seen := make([]bool, I)
		for j, i := range order {
			if int(i) >= I || seen[i] {
				t.Fatalf("order is not a permutation: rank %d holds model %d", j, i)
			}
			seen[i] = true
			if j > 0 && thr[order[j-1]] > thr[i] {
				t.Fatalf("thresholds descend at rank %d: %v > %v", j, thr[order[j-1]], thr[i])
			}
		}

		rates := append([]float64{a, b, 0, math.Inf(1)}, thr...)
		atMost := func(x float64) int {
			c := 0
			for _, v := range thr {
				if v <= x {
					c++
				}
			}
			return c
		}
		for _, x := range rates {
			if got, want := searchGreater(thr, order, x), atMost(x); got != want {
				t.Fatalf("searchGreater(%v) = %d, want %d", x, got, want)
			}
		}
		for _, pair := range [][2]float64{{a, b}, {b, a}, {a, rates[4]}, {rates[len(rates)-1], b}} {
			oldRate, newRate := pair[0], pair[1]
			lo, hi, set := flipRange(thr, order, oldRate, newRate)
			if set != (newRate > oldRate) {
				t.Fatalf("flipRange(%v→%v): set = %v", oldRate, newRate, set)
			}
			lower, upper := min(oldRate, newRate), max(oldRate, newRate)
			inRange := make([]bool, I)
			for _, i := range order[lo:hi] {
				inRange[i] = true
			}
			for i, v := range thr {
				if want := lower < v && v <= upper; inRange[i] != want {
					t.Fatalf("flipRange(%v→%v) = [%d, %d): model %d (threshold %v) in range %v, want %v",
						oldRate, newRate, lo, hi, i, v, inRange[i], want)
				}
			}
		}

		wi := (I + 63) / 64
		events := make([]fadeEvent, len(rates))
		for s, x := range rates {
			events[s] = fadeEvent{x, s}
		}
		snaps := make([]uint64, len(rates)*wi)
		for j := range snaps {
			snaps[j] = ^uint64(0) // stale bits the scan must overwrite
		}
		scanRankPrefixes(events, thr, order, snaps, wi)
		for s, x := range rates {
			snap := snaps[s*wi : (s+1)*wi]
			for i := 0; i < wi*64; i++ {
				want := i < I && thr[i] <= x
				if got := snap[i>>6]>>uint(i&63)&1 != 0; got != want {
					t.Fatalf("snapshot at rate %v: model %d set %v, want %v", x, i, got, want)
				}
			}
		}
	})
}
