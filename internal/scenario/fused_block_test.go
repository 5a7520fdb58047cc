package scenario

import (
	"fmt"
	"sort"
	"testing"

	"trimcaching/internal/libgen"
	"trimcaching/internal/rng"
)

// packedView is a raw ServerColumns implementation for kernel-level tests:
// the placement columns as a bare word slice.
type packedView struct{ cols []uint64 }

func (v packedView) PackedServerColumns() []uint64 { return v.cols }

// randomViews builds n random placement column sets for ins, with enough
// density that hits are not vacuous.
func randomViews(ins *Instance, n int, src *rng.Source) []ServerColumns {
	M, I, sw := ins.NumServers(), ins.NumModels(), ins.ServerMaskWords()
	views := make([]ServerColumns, n)
	for a := range views {
		cols := make([]uint64, I*sw)
		for i := 0; i < I; i++ {
			for m := 0; m < M; m++ {
				if src.Float64() < 0.3 {
					cols[i*sw+(m>>6)] |= 1 << uint(m&63)
				}
			}
		}
		views[a] = packedView{cols: cols}
	}
	return views
}

// assertMatchesDense compares the fused masses got against the
// kernel-level scalar reference: the two-pass reachability indicator from
// FadedReach, scanned server by server per (user, model) request in
// ascending order, so its float adds land in the kernel's order.
func assertMatchesDense(t *testing.T, label string, ins *Instance, gains [][]float64, views []ServerColumns, got []float64) {
	t.Helper()
	reach, err := ins.FadedReach(gains, nil)
	if err != nil {
		t.Fatal(err)
	}
	M, K, I, sw := ins.NumServers(), ins.NumUsers(), ins.NumModels(), ins.ServerMaskWords()
	for a, v := range views {
		cols := v.PackedServerColumns()
		dense := 0.0
		for k := 0; k < K; k++ {
			for i := 0; i < I; i++ {
				for m := 0; m < M; m++ {
					if cols[i*sw+m>>6]&(1<<uint(m&63)) != 0 && reach.ServerMask(k, i).Has(m) {
						dense += ins.Prob(k, i)
						break
					}
				}
			}
		}
		if got[a] != dense {
			t.Fatalf("%s view=%d: fused %.17g != dense %.17g", label, a, got[a], dense)
		}
	}
}

// zeroGains sets about share of the gain entries to exactly 0: a covering
// link of an up server then has rate 0, and its user relays through that
// server instead of being served by it directly.
func zeroGains(gains [][]float64, share float64, src *rng.Source) {
	for m := range gains {
		for k := range gains[m] {
			if src.Float64() < share {
				gains[m][k] = 0
			}
		}
	}
}

// blockFixtures are the kernel-level inputs: one model word (I = 9), two
// server words (M = 70), two model words (I = 75), and each again with a
// down server and a storage budget that blocks about half the models.
var blockFixtures = []struct {
	m, k, perFamily int
	faults          bool
}{
	{6, 15, 3, false}, {70, 20, 3, false}, {10, 20, 25, false},
	{6, 15, 3, true}, {70, 20, 3, true}, {10, 20, 25, true},
}

// applyFixtureFaults takes server 1 down and sets server 2's budget to the
// median model size.
func applyFixtureFaults(t *testing.T, ins *Instance) {
	t.Helper()
	if _, err := ins.SetServersDown([]int{1}, true); err != nil {
		t.Fatal(err)
	}
	sizes := append([]float64(nil), ins.sizeBits...)
	sort.Float64s(sizes)
	if _, err := ins.SetServerCapacity(2, int64(sizes[len(sizes)/2])); err != nil {
		t.Fatal(err)
	}
}

// TestFadedHitMassBlockMatchesPerRealization pins the kernel-level half of
// the realization-blocking contract: for any block partition of the
// realizations, FadedHitMassBlock must equal a per-realization loop of
// SampleGains + FadedHitMass exactly — same draws (realization r always
// consumes the full M×K gain matrix of its own source), same word ops,
// same float add order. The block sizes put block ends inside, at and past
// the kernel's realization-chunk boundaries, and one block repeats every
// source, so equal rates tie in the merged rank scan. Every
// per-realization result must also equal the dense scalar reference, both
// on the drawn gains and with 30% of them zeroed — the blocked path never
// draws an exact 0, so zero-rate covering links reach the kernel only
// through explicit gains.
func TestFadedHitMassBlockMatchesPerRealization(t *testing.T) {
	const R = 2*fadeChunk + 3
	for _, fx := range blockFixtures {
		ins := buildInstance(t, fx.m, fx.k, fx.perFamily, 40)
		if fx.faults {
			applyFixtureFaults(t, ins)
		}
		views := randomViews(ins, 3, rng.New(41))
		P := len(views)
		root := rng.New(42)
		name := fmt.Sprintf("M=%d I=%d faults=%v", fx.m, ins.NumModels(), fx.faults)

		// Reference: one realization at a time through the gains-based entry
		// point, each drawing its full gain matrix from its own source.
		gains := SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(0))
		want := make([]float64, R*P)
		zeroed := make([]float64, P)
		scratch := ins.MakeFadeScratch()
		for r := 0; r < R; r++ {
			SampleGainsInto(gains, root.SplitIndex("real", r))
			if err := ins.FadedHitMass(gains, views, want[r*P:(r+1)*P], scratch); err != nil {
				t.Fatal(err)
			}
			assertMatchesDense(t, fmt.Sprintf("%s r=%d", name, r), ins, gains, views, want[r*P:(r+1)*P])
			zeroGains(gains, 0.3, root.SplitIndex("zero", r))
			if err := ins.FadedHitMass(gains, views, zeroed, scratch); err != nil {
				t.Fatal(err)
			}
			assertMatchesDense(t, fmt.Sprintf("%s r=%d zeroed gains", name, r), ins, gains, views, zeroed)
		}

		for _, block := range []int{1, 2, 3, 7, fadeChunk - 1, fadeChunk, fadeChunk + 1, R} {
			got := make([]float64, R*P)
			srcs := make([]*rng.Source, 0, block)
			for r0 := 0; r0 < R; r0 += block {
				n := min(block, R-r0)
				srcs = srcs[:0]
				for j := 0; j < n; j++ {
					srcs = append(srcs, root.SplitIndex("real", r0+j))
				}
				if err := ins.FadedHitMassBlock(srcs, views, got[r0*P:(r0+n)*P], scratch); err != nil {
					t.Fatal(err)
				}
			}
			for x := range got {
				if got[x] != want[x] {
					t.Fatalf("%s block=%d: entry %d (r=%d view=%d): blocked %.17g != per-realization %.17g",
						name, block, x, x/P, x%P, got[x], want[x])
				}
			}
		}

		// Ties: block entry j draws realization j/2, so every rate appears
		// twice in its chunk's merged order, and the last pair sits in a
		// second chunk.
		const tied = fadeChunk + 2
		srcs := make([]*rng.Source, tied)
		for j := range srcs {
			srcs[j] = root.SplitIndex("real", j/2)
		}
		got := make([]float64, tied*P)
		if err := ins.FadedHitMassBlock(srcs, views, got, scratch); err != nil {
			t.Fatal(err)
		}
		for x := range got {
			if w := want[(x/P/2)*P+x%P]; got[x] != w {
				t.Fatalf("%s tied block: entry %d (r=%d view=%d): blocked %.17g != per-realization %.17g",
					name, x, x/P/2, x%P, got[x], w)
			}
		}
	}
}

// FuzzFadedHitMassBlock fuzzes the realization-blocked kernel over whole
// instances: seed, server and user counts, models per family, block size
// (1 to 3·fadeChunk, so a block ends inside, at or past a chunk boundary)
// and one optional down server. Every blocked entry must equal the
// per-realization SampleGainsInto + FadedHitMass result bit for bit.
func FuzzFadedHitMassBlock(f *testing.F) {
	f.Add(uint64(40), uint8(6), uint8(15), uint8(3), uint8(3), uint8(0))
	f.Add(uint64(41), uint8(6), uint8(15), uint8(3), uint8(fadeChunk-1), uint8(2))
	f.Add(uint64(42), uint8(70), uint8(20), uint8(3), uint8(fadeChunk), uint8(0))
	f.Add(uint64(43), uint8(10), uint8(20), uint8(25), uint8(3*fadeChunk-1), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, m, k, perFamily, block, down uint8) {
		M := 1 + int(m)%80
		ins := buildInstance(t, M, 1+int(k)%40, 1+int(perFamily)%30, seed)
		if down != 0 {
			if _, err := ins.SetServersDown([]int{(int(down) - 1) % M}, true); err != nil {
				t.Fatal(err)
			}
		}
		views := randomViews(ins, 2, rng.New(seed+1))
		P := len(views)
		root := rng.New(seed + 2)
		B := 1 + int(block)%(3*fadeChunk)
		scratch := ins.MakeFadeScratch()
		gains := SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(0))
		want := make([]float64, B*P)
		srcs := make([]*rng.Source, B)
		for r := range srcs {
			SampleGainsInto(gains, root.SplitIndex("real", r))
			if err := ins.FadedHitMass(gains, views, want[r*P:(r+1)*P], scratch); err != nil {
				t.Fatal(err)
			}
			srcs[r] = root.SplitIndex("real", r)
		}
		got := make([]float64, B*P)
		if err := ins.FadedHitMassBlock(srcs, views, got, scratch); err != nil {
			t.Fatal(err)
		}
		for x := range got {
			if got[x] != want[x] {
				t.Fatalf("block=%d: entry %d (r=%d view=%d): blocked %.17g != per-realization %.17g",
					B, x, x/P, x%P, got[x], want[x])
			}
		}
	})
}

// TestFadedHitMassBlockValidation covers the blocked entry point's error
// paths.
func TestFadedHitMassBlockValidation(t *testing.T) {
	ins := buildInstance(t, 4, 8, 2, 45)
	views := randomViews(ins, 2, rng.New(46))
	if err := ins.FadedHitMassBlock(nil, views, nil, nil); err == nil {
		t.Fatal("empty source list must error")
	}
	srcs := []*rng.Source{rng.New(47), rng.New(48)}
	if err := ins.FadedHitMassBlock(srcs, views, make([]float64, 3), nil); err == nil {
		t.Fatal("dst length mismatch must error")
	}
	if err := ins.FadedHitMassBlock(srcs, views, make([]float64, 2*len(views)), nil); err != nil {
		t.Fatalf("valid call failed: %v", err)
	}
}

// TestFadedHitMassValidation covers the explicit-gains entry point's error
// paths.
func TestFadedHitMassValidation(t *testing.T) {
	ins := buildInstance(t, 3, 8, 2, 80)
	views := randomViews(ins, 1, rng.New(81))
	gains := SampleGains(ins.NumServers(), ins.NumUsers(), rng.New(82))
	if err := ins.FadedHitMass(gains, views, make([]float64, 2), nil); err == nil {
		t.Fatal("output length mismatch must error")
	}
	if err := ins.FadedHitMass(gains[:1], views, make([]float64, 1), nil); err == nil {
		t.Fatal("gain dim mismatch must error")
	}
	if err := ins.FadedHitMass(gains, nil, nil, nil); err != nil {
		t.Fatalf("empty view list must be a no-op, got %v", err)
	}
}

// TestFadeScratchRejectsOtherServerCount pins the scratch dims check on M:
// a scratch built for an M=10 instance must be refused by an M=12 instance
// with the same K, I and server words, not index past its per-link buffers.
// The small area puts every user in reach of every server, so each user
// has more covering links than the smaller instance has servers.
func TestFadeScratchRejectsOtherServerCount(t *testing.T) {
	build := func(m int) *Instance {
		lib, err := libgen.GenerateSpecial(libgen.DefaultSpecialConfig(3), rng.New(90))
		if err != nil {
			t.Fatal(err)
		}
		cfg := paperGenConfig(m, 8)
		cfg.Topology.AreaSideM = 150
		ins, err := Generate(lib, cfg, rng.New(91))
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	small, big := build(10), build(12)
	if n := len(big.Topology().ServersCovering(0)); n != 12 {
		t.Fatalf("user 0 has %d covering servers, want all 12", n)
	}
	scratch := small.MakeFadeScratch()
	views := randomViews(big, 2, rng.New(92))
	gains := SampleGains(big.NumServers(), big.NumUsers(), rng.New(93))
	if err := big.FadedHitMass(gains, views, make([]float64, 2), scratch); err == nil {
		t.Fatal("FadedHitMass accepted a scratch built for M=10")
	}
	if err := big.FadedHitMassBlock([]*rng.Source{rng.New(94)}, views, make([]float64, 2), scratch); err == nil {
		t.Fatal("FadedHitMassBlock accepted a scratch built for M=10")
	}
}

// TestRankIndexBuiltAtConstruction pins the construction-time rank index:
// a fresh instance must expose per-user rank rows that sort the user's
// thresholds without any in-place update having run.
func TestRankIndexBuiltAtConstruction(t *testing.T) {
	ins := buildInstance(t, 6, 12, 3, 50)
	I := ins.NumModels()
	for k := 0; k < ins.NumUsers(); k++ {
		do, ro, dt, rt := ins.UserRankRows(k)
		if len(do) != I || len(ro) != I {
			t.Fatalf("user %d: rank rows %d/%d, want %d", k, len(do), len(ro), I)
		}
		for j := 1; j < I; j++ {
			if dt[do[j]] < dt[do[j-1]] || rt[ro[j]] < rt[ro[j-1]] {
				t.Fatalf("user %d: thresholds not ascending through the order at rank %d", k, j)
			}
		}
	}
}
