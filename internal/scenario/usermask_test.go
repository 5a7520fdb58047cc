package scenario

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"trimcaching/internal/bitset"
	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/mobility"
	"trimcaching/internal/rng"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// assertUserMasksTransposeServerMasks checks every word of every user
// mask: bit k of UserMask(m, i) must equal bit m of ServerMask(k, i) for
// every user, zero-mass users included, and the padding bits past K must
// be clear.
func assertUserMasksTransposeServerMasks(t *testing.T, stage string, ins *Instance) {
	t.Helper()
	M, K, I := ins.NumServers(), ins.NumUsers(), ins.NumModels()
	want := bitset.New(K)
	for i := 0; i < I; i++ {
		for m := 0; m < M; m++ {
			want.Zero()
			for k := 0; k < K; k++ {
				if ins.ServerMask(k, i).Has(m) {
					want.Set(k)
				}
			}
			if got := ins.UserMask(m, i); !got.Equal(want) {
				t.Fatalf("%s: user mask (server %d, model %d) = %#x, server masks give %#x", stage, m, i, []uint64(got), []uint64(want))
			}
		}
	}
}

// TestUserMasksMatchServerMasks pins the derived user masks to the server
// masks through every update path: construction; ReviseUsers walks with
// moved, revised and mass-only users, where a parked zero-mass user moves
// untracked and later regains mass; an outage and its recovery; and a
// capacity shrink and its restore. M = 70 puts the servers in a full and a
// partial word (the second transposes at width 8), and K = 150 leaves the
// last 64-user block partial.
func TestUserMasksMatchServerMasks(t *testing.T) {
	for _, M := range []int{6, 70} {
		t.Run(fmt.Sprintf("M=%d", M), func(t *testing.T) {
			const K = 150
			ins, aliased, parent, area, users := sizedReviseFixture(t, M, K)
			assertUserMasksTransposeServerMasks(t, "construction", ins)

			zero := make([]float64, ins.NumModels())
			walk := rng.New(9)
			pos := append([]geom.Point(nil), users...)
			const parked = 17
			for round := 0; round < 3; round++ {
				var moved []int
				var movedPos []geom.Point
				for k := round % 3; k < K; k += 3 {
					pos[k] = area.SamplePoint(walk)
					moved = append(moved, k)
					movedPos = append(movedPos, pos[k])
				}
				if round == 1 {
					// The parked user moves while it carries no mass.
					pos[parked] = area.SamplePoint(walk)
					moved = append(moved, parked)
					movedPos = append(movedPos, pos[parked])
				}
				// Round 0 parks the user (mass only), round 2 gives its mass
				// back; every round also rebinds one user to another's rows.
				var massOnly []int
				switch round {
				case 0:
					massOnly = []int{parked}
					if err := aliased.SetUserProbRow(parked, zero); err != nil {
						t.Fatal(err)
					}
				case 2:
					massOnly = []int{parked}
					if err := aliased.SetUserProbRow(parked, parent.ProbRow(parked)); err != nil {
						t.Fatal(err)
					}
				}
				bound := 40 + round
				donor := (bound + 7) % K
				if err := aliased.SetUserRows(bound, parent.ProbRow(donor), parent.DeadlineRow(donor), parent.InferRow(donor)); err != nil {
					t.Fatal(err)
				}
				if _, err := ins.ReviseUsers([]int{bound}, massOnly, moved, movedPos); err != nil {
					t.Fatal(err)
				}
				if hasMass := rowHasMass(ins.ProbRow(parked)); hasMass != (round == 2) {
					t.Fatalf("round %d: parked user has mass %v", round, hasMass)
				}
				assertUserMasksTransposeServerMasks(t, fmt.Sprintf("revise round %d", round), ins)
			}

			down := []int{1, M - 1}
			if _, err := ins.SetServersDown(down, true); err != nil {
				t.Fatal(err)
			}
			assertUserMasksTransposeServerMasks(t, "outage", ins)
			if _, err := ins.SetServersDown(down, false); err != nil {
				t.Fatal(err)
			}
			assertUserMasksTransposeServerMasks(t, "recovery", ins)

			// A budget below the mean model size blocks the larger models,
			// and a zero budget blocks every model.
			var mean float64
			for _, b := range ins.sizeBits {
				mean += b / float64(len(ins.sizeBits))
			}
			for _, c := range []struct {
				m    int
				bits int64
			}{{M - 1, int64(mean)}, {0, 0}} {
				if _, err := ins.SetServerCapacity(c.m, c.bits); err != nil {
					t.Fatal(err)
				}
				assertUserMasksTransposeServerMasks(t, fmt.Sprintf("capacity %d on server %d", c.bits, c.m), ins)
			}
			for _, m := range []int{M - 1, 0} {
				if _, err := ins.SetServerCapacity(m, -1); err != nil {
					t.Fatal(err)
				}
			}
			assertUserMasksTransposeServerMasks(t, "capacity restore", ins)
		})
	}
}

// FuzzTranspose64 checks the width-bounded transpose against a per-bit
// loop: 64 arbitrary words masked to width W = 2^s (s = 0..6) must come
// back with bit j of row c equal to bit c of input word j, for the first W
// rows.
func FuzzTranspose64(f *testing.F) {
	f.Add(uint64(1), uint8(6))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(4))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, s uint8) {
		width := 1 << (s % 7)
		src := rng.New(seed)
		var in, a [64]uint64
		for j := range in {
			in[j] = src.Uint64()
			if width < 64 {
				in[j] &= 1<<uint(width) - 1
			}
		}
		a = in
		transpose64(&a, width)
		for c := 0; c < width; c++ {
			var want uint64
			for j := 0; j < 64; j++ {
				want |= (in[j] >> uint(c) & 1) << uint(j)
			}
			if a[c] != want {
				t.Fatalf("width %d: row %d = %#x, want %#x", width, c, a[c], want)
			}
		}
	})
}

// checkpointShapes are the operating points of cmd/bench's mobility-fading
// (M = 16, K = 6000, I = 250) and fault-churn (M = 36, K = 500, I = 1000)
// workloads.
var checkpointShapes = []struct {
	name                 string
	servers, users, lora int
	activeProb, backhaul float64
}{
	{"mobility-fading", 16, 6000, 250, 0.04, 1e9},
	{"fault-churn", 36, 500, 1000, 0.02, 1e8},
}

// walkedCheckpoint builds the instance of checkpointShapes[c] and walks
// its users through one ten-minute checkpoint (120 slots of 5 s). It
// returns the instance, still at the starting positions, the starting
// positions and the walked ones.
func walkedCheckpoint(b *testing.B, c int) (*Instance, []geom.Point, []geom.Point) {
	b.Helper()
	shape := checkpointShapes[c]
	lcfg := libgen.DefaultLoRAConfig(shape.lora)
	lcfg.FoundationParams = 1_000_000_000
	lib, err := libgen.GenerateLoRA(lcfg)
	if err != nil {
		b.Fatal(err)
	}
	w := wireless.DefaultConfig()
	w.BackhaulBps = shape.backhaul
	w.ActiveProb = shape.activeProb
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	side := 1000 * math.Sqrt(float64(shape.servers)/10)
	src := rng.New(1)
	ins, err := Generate(lib, GenConfig{
		Topology: topology.Config{AreaSideM: side, NumServers: shape.servers, NumUsers: shape.users, CoverageRadiusM: w.CoverageRadiusM, ServerLayout: topology.LayoutGrid},
		Wireless: w,
		Workload: wl,
	}, src.Split("instance"))
	if err != nil {
		b.Fatal(err)
	}
	start := ins.Topology().UserPositions()
	pop, err := mobility.NewPopulation(ins.Topology().Area(), start, src.Split("mobility"))
	if err != nil {
		b.Fatal(err)
	}
	walk := src.Split("walk")
	for s := 0; s < 120; s++ {
		if err := pop.Step(5, walk); err != nil {
			b.Fatal(err)
		}
	}
	return ins, start, slices.Clone(pop.Positions())
}

// BenchmarkUserMaskSync times one derivation of the user masks after a
// checkpoint's ReviseUsers — a ten-minute walk of every user — at the
// checkpointShapes. It reports the cost per (user, model).
func BenchmarkUserMaskSync(b *testing.B) {
	for c, shape := range checkpointShapes {
		b.Run(shape.name, func(b *testing.B) {
			ins, _, walked := walkedCheckpoint(b, c)
			all := make([]int, shape.users)
			for k := range all {
				all[k] = k
			}
			if _, err := ins.ReviseUsers(nil, nil, all, walked); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				ins.usrStale = true
				ins.UserMask(0, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.users*shape.lora), "ns/user-model")
		})
	}
}

// BenchmarkReviseUsers times one checkpoint's ReviseUsers at one update
// worker, at the checkpointShapes: every user moves from its starting to
// its walked position, or back. It reports the cost per recomputed user —
// one whose coverage changed, so the refresh re-derives its reach rows
// rather than flipping the crossed verdicts — the same count both ways.
func BenchmarkReviseUsers(b *testing.B) {
	for c, shape := range checkpointShapes {
		b.Run(shape.name, func(b *testing.B) {
			ins, start, walked := walkedCheckpoint(b, c)
			ins.SetUpdateWorkers(1)
			all := make([]int, shape.users)
			for k := range all {
				all[k] = k
			}
			before := make([][]int, shape.users)
			for k := range before {
				before[k] = slices.Clone(ins.Topology().ServersCovering(k))
			}
			if _, err := ins.ReviseUsers(nil, nil, all, walked); err != nil {
				b.Fatal(err)
			}
			recomputed := 0
			for k := range before {
				if !slices.Equal(before[k], ins.Topology().ServersCovering(k)) {
					recomputed++
				}
			}
			if recomputed == 0 {
				b.Fatal("the walk changed no user's coverage")
			}
			targets := [2][]geom.Point{start, walked}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				if _, err := ins.ReviseUsers(nil, nil, all, targets[it%2]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*recomputed), "ns/recomputed-user")
		})
	}
}
