package placement

import (
	"math"
	"slices"
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/libgen"
	"trimcaching/internal/rng"
	"trimcaching/internal/scenario"
	"trimcaching/internal/topology"
	"trimcaching/internal/wireless"
	"trimcaching/internal/workload"
)

// refSolve is one run of referenceLazyGreedy.
type refSolve struct {
	p          *Placement
	pops       int  // heap entries popped
	lastCommit int  // pops up to and including the last commit; 0 without one
	filled     bool // every server with a starting candidate ended with less room than the cost floor
	roomy      bool // every server with a starting candidate ended with at least the floor free
}

// referenceLazyGreedy is runLazyGreedy without its shortcuts: it builds its
// starting heap server-major from fresh masked sums, computes every gain
// with maskMass over UserMask (no u0 read for uncovered models), and pops
// until the heap is empty (no exit once nothing fits). It reads neither the
// evaluator's gain memo nor its commit heap. Along the way it checks the
// exit's premise: no candidate it tests for fit costs less than the floor,
// the least specific size (deduplicated) or model size (independent).
func referenceLazyGreedy(t testing.TB, e *Evaluator, caps []int64, dedup bool) refSolve {
	t.Helper()
	s, err := newGreedyState(e, caps, dedup)
	if err != nil {
		t.Fatal(err)
	}
	ins := e.Instance()
	lib := ins.Library()
	M, I := ins.NumServers(), ins.NumModels()
	floor := int64(math.MaxInt64)
	for i := 0; i < I; i++ {
		c := lib.ModelSize(i)
		if dedup {
			c = lib.SpecificSize(i)
		}
		floor = min(floor, c)
	}
	var h candidateHeap
	start := make([]bool, M)
	for m := 0; m < M; m++ {
		for i := 0; i < I; i++ {
			if g := e.maskMass(i, ins.UserMask(m, i), nil); g > gainTolerance {
				h = append(h, candidate{key: g, m: int32(m), i: int32(i)})
				start[m] = true
			}
		}
	}
	h.init()
	var r refSolve
	for len(h) > 0 {
		c := h.pop()
		r.pops++
		m, i := int(c.m), int(c.i)
		g := e.maskMass(i, ins.UserMask(m, i), s.coveredMask(i))
		if g <= gainTolerance {
			continue
		}
		if len(h) > 0 && g < h[0].key {
			c.key = g
			h.push(c)
			continue
		}
		if cost := s.cost(m, i); cost < floor {
			t.Fatalf("candidate (%d,%d) costs %d, below the floor %d", m, i, cost, floor)
		}
		if s.fits(m, i) {
			s.commit(m, i)
			r.lastCommit = r.pops
		}
	}
	r.p = s.placed
	r.filled, r.roomy = true, true
	for m := 0; m < M; m++ {
		if !start[m] {
			continue
		}
		if caps[m]-s.used[m] < floor {
			r.roomy = false
		} else {
			r.filled = false
		}
	}
	return r
}

// refTally counts the pop regimes checkAgainstReference saw, so a test can
// require that each was exercised.
type refTally struct {
	filledCut int // every server filled and the exit cut pops after the last commit
	roomy     int // no server filled: the exit cannot fire early
	commits   int // solves that committed anything
}

// checkAgainstReference solves with the production lazy greedy and with the
// reference on e and requires identical placements. It also pins the pop
// count: never more than the reference's, never short of its last commit,
// exactly its last commit when every server filled, and all of its pops
// when none did.
func checkAgainstReference(t testing.TB, e *Evaluator, caps []int64, dedup bool, tally *refTally) {
	t.Helper()
	ref := referenceLazyGreedy(t, e, caps, dedup)
	s, err := newGreedyState(e, caps, dedup)
	if err != nil {
		t.Fatal(err)
	}
	runLazyGreedy(s)
	if !placementsEqual(s.placed, ref.p) {
		t.Fatalf("dedup=%v caps=%v: lazy placement differs from the reference", dedup, caps)
	}
	if s.pops > ref.pops || s.pops < ref.lastCommit {
		t.Fatalf("dedup=%v caps=%v: %d pops, reference %d with its last commit at %d", dedup, caps, s.pops, ref.pops, ref.lastCommit)
	}
	if ref.filled && s.pops != ref.lastCommit {
		t.Fatalf("dedup=%v caps=%v: every server filled, yet %d pops against the last commit at %d (reference %d)", dedup, caps, s.pops, ref.lastCommit, ref.pops)
	}
	if ref.roomy && s.pops != ref.pops {
		t.Fatalf("dedup=%v caps=%v: no server filled, yet %d pops against the reference's %d", dedup, caps, s.pops, ref.pops)
	}
	if tally != nil {
		if ref.filled && ref.pops > ref.lastCommit {
			tally.filledCut++
		}
		if ref.roomy {
			tally.roomy++
		}
		if ref.lastCommit > 0 {
			tally.commits++
		}
	}
}

// loraFaultEval builds a LoRA instance shaped like the fault-churn
// deployment of cmd/bench: a 1B-parameter foundation (2 GB at 2 bytes per
// parameter) shared by adapters of 10 MB each, servers on a grid over a
// square of side 1000·√(M/10) m, a 100 Mb/s backhaul, activity probability
// 0.02 and 60–180 s deadlines.
func loraFaultEval(t testing.TB, servers, users, adapters int, seed uint64) *Evaluator {
	t.Helper()
	cfg := libgen.DefaultLoRAConfig(adapters)
	cfg.FoundationParams = 1_000_000_000
	lib, err := libgen.GenerateLoRA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := wireless.DefaultConfig()
	w.BackhaulBps = 1e8
	w.ActiveProb = 0.02
	wl := workload.DefaultConfig()
	wl.DeadlineMinS, wl.DeadlineMaxS = 60, 180
	wl.InferMinS, wl.InferMaxS = 1, 5
	gen := scenario.GenConfig{
		Topology: topology.Config{
			AreaSideM:       1000 * math.Sqrt(float64(servers)/10),
			NumServers:      servers,
			NumUsers:        users,
			CoverageRadiusM: w.CoverageRadiusM,
			ServerLayout:    topology.LayoutGrid,
		},
		Wireless: w,
		Workload: wl,
	}
	ins, err := scenario.Generate(lib, gen, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ins)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Fault ops of a repair script.
const (
	opDown = iota
	opUp
	opCapacity
	opMove
	opSwap // users take a donor's workload rows: ReviseUsers' revised list
	opPark // users' probability rows park at zero or restore: the massOnly list
	numOps
)

// faultOp is one instance update of a repair script.
type faultOp struct {
	kind   int
	mask   byte   // opDown/opUp: bit m%8 selects server m; opMove/opSwap/opPark: bit k%8 selects user k; opCapacity: the server, mod M
	budget int64  // opCapacity: bytes; negative restores the configured capacity
	seed   uint64 // opMove: the new positions' draw; opSwap: the donors' offset
}

// repairFixture is an evaluator with the live capacities of a repair
// script and each algorithm's previous placement.
type repairFixture struct {
	e     *Evaluator
	caps0 []int64
	caps  []int64
	prev  [2]*Placement // Gen, Independent
	zero  []float64     // opPark's parked probability row
	rows0 [][]float64   // opPark's restored rows: each user's probability row at the start
}

var repairAlgs = [2]WarmStartAlgorithm{GenAlgorithm{Options: GenOptions{Lazy: true}}, IndependentAlgorithm{}}

// newRepairFixture solves both algorithms cold on e at caps and checks
// them against the reference.
func newRepairFixture(t testing.TB, e *Evaluator, caps []int64, tally *refTally) *repairFixture {
	t.Helper()
	fx := &repairFixture{e: e, caps0: caps, caps: append([]int64(nil), caps...)}
	w := e.Instance().Workload()
	fx.zero = make([]float64, w.NumModels())
	for k := 0; k < w.NumUsers(); k++ {
		fx.rows0 = append(fx.rows0, w.ProbRow(k))
	}
	for a, alg := range repairAlgs {
		p, err := alg.Place(e, fx.caps)
		if err != nil {
			t.Fatal(err)
		}
		fx.prev[a] = p
		checkAgainstReference(t, e, fx.caps, a == 0, tally)
	}
	return fx
}

// apply performs op on the fixture's instance with the engine's capacity
// bookkeeping (dynamics.Engine.SetServerCapacity): a budget in bytes is
// also the solver's capacity for that server, and a restore returns to the
// configured one.
func (fx *repairFixture) apply(t testing.TB, op faultOp) *scenario.Delta {
	t.Helper()
	ins := fx.e.Instance()
	var d *scenario.Delta
	var err error
	switch op.kind {
	case opDown, opUp:
		var servers []int
		for m := 0; m < ins.NumServers(); m++ {
			if op.mask>>(m%8)&1 == 1 {
				servers = append(servers, m)
			}
		}
		d, err = ins.SetServersDown(servers, op.kind == opDown)
	case opCapacity:
		m := int(op.mask) % ins.NumServers()
		bits := int64(-1)
		if op.budget < 0 {
			fx.caps[m] = fx.caps0[m]
		} else {
			fx.caps[m] = op.budget
			bits = 8 * op.budget
		}
		d, err = ins.SetServerCapacity(m, bits)
	case opMove:
		area := ins.Topology().Area()
		src := rng.New(op.seed)
		var moved []int
		var pos []geom.Point
		for k := 0; k < ins.NumUsers(); k++ {
			if op.mask>>(k%8)&1 == 1 {
				moved = append(moved, k)
				pos = append(pos, area.SamplePoint(src))
			}
		}
		d, err = ins.ReviseUsers(nil, nil, moved, pos)
	case opSwap, opPark:
		w, K := ins.Workload(), ins.NumUsers()
		var users []int
		for k := 0; k < K; k++ {
			if op.mask>>(k%8)&1 == 0 {
				continue
			}
			users = append(users, k)
			if op.kind == opSwap {
				donor := (k + 1 + int(op.seed%uint64(K-1))) % K
				err = w.SetUserRows(k, w.ProbRow(donor), w.DeadlineRow(donor), w.InferRow(donor))
			} else {
				row := fx.zero
				if slices.Max(w.ProbRow(k)) == 0 {
					row = fx.rows0[k]
				}
				err = w.SetUserProbRow(k, row)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if op.kind == opSwap {
			d, err = ins.ReviseUsers(users, nil, nil, nil)
		} else {
			d, err = ins.ReviseUsers(nil, users, nil, nil)
		}
	default:
		t.Fatalf("unknown op kind %d", op.kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// repair absorbs d as the engine does (ApplyDelta at the event, then a
// warm Repair), and requires each algorithm's repair to equal a cold Place
// on a fresh evaluator and to pass checkAgainstReference on the warm one.
func (fx *repairFixture) repair(t testing.TB, d *scenario.Delta, tally *refTally) {
	t.Helper()
	if err := fx.e.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEvaluator(fx.e.Instance())
	if err != nil {
		t.Fatal(err)
	}
	for a, alg := range repairAlgs {
		warm, err := alg.Repair(fx.e, fx.caps, fx.prev[a], d)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := alg.Place(fresh, fx.caps)
		if err != nil {
			t.Fatal(err)
		}
		if !placementsEqual(warm, cold) {
			t.Fatalf("%s: warm repair differs from a cold solve (caps %v, down %v)", alg.Name(), fx.caps, fx.e.Instance().DownServers())
		}
		checkAgainstReference(t, fx.e, fx.caps, a == 0, tally)
		fx.prev[a] = warm
	}
}

// randomOp draws a fault op with budgets in multiples of unit bytes.
func randomOp(src *rng.Source, unit int64) faultOp {
	op := faultOp{kind: src.Intn(numOps), mask: byte(src.Intn(256)), seed: src.Uint64()}
	if op.kind == opCapacity {
		op.budget = int64(src.Intn(40)) * unit
		if src.Intn(4) == 0 {
			op.budget = -1
		}
	}
	return op
}

// TestLazyGreedyMatchesReference pins the lazy greedy's three shortcuts —
// the exit once nothing fits, u0 read for uncovered models, the model-major
// refill — to the test-only reference: identical Gen and Independent
// placements, and the pop bounds of checkAgainstReference, on special-case
// and LoRA instances, at capacities where every server fills and where
// none does, cold and after warm repairs that follow random outages,
// recoveries, capacity changes, user moves, workload row swaps and
// mass-only parks and restores.
func TestLazyGreedyMatchesReference(t *testing.T) {
	type fixture struct {
		name string
		e    func() *Evaluator
		caps []int64 // uniform capacities to run at
		unit int64   // budget step of the random capacity ops
	}
	const adapter = 10_000_000 // LoRA adapter bytes: 0.005 of a 1B-parameter foundation at 2 bytes
	const foundation = 2_000_000_000
	var fixtures []fixture
	for seed := uint64(20); seed < 23; seed++ {
		seed := seed
		fixtures = append(fixtures,
			fixture{
				name: "special",
				e:    func() *Evaluator { return buildEval(t, 5, 14, 3, seed) },
				caps: []int64{0, gb / 16, gb / 8, gb / 2, 100 * gb},
				unit: gb / 32,
			},
			fixture{
				name: "lora",
				e:    func() *Evaluator { return loraFaultEval(t, 9, 60, 40, seed) },
				caps: []int64{0, foundation + adapter/2, foundation + 5*adapter/2, foundation + 6*adapter, 100 * gb},
				unit: 3 * adapter,
			},
		)
	}
	tallies := map[string]*refTally{"special": {}, "lora": {}}
	src := rng.New(5)
	for _, fx := range fixtures {
		tally := tallies[fx.name]
		for _, q := range fx.caps {
			e := fx.e()
			M := e.Instance().NumServers()
			rf := newRepairFixture(t, e, UniformCapacities(M, q), tally)
			for step := 0; step < 6; step++ {
				op := randomOp(src, fx.unit)
				if op.kind == opCapacity && q == 0 && op.budget > 0 {
					op.budget = 0 // keep the zero-capacity runs at zero
				}
				rf.repair(t, rf.apply(t, op), tally)
			}
		}
	}
	for name, tl := range tallies {
		t.Logf("%s: %+v", name, *tl)
		if tl.filledCut == 0 || tl.roomy == 0 || tl.commits == 0 {
			t.Fatalf("%s: vacuous regimes: %+v", name, *tl)
		}
	}
}

// byteReader hands out a fuzz input's bytes in order, then zeros.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// FuzzRepairMatchesReference decodes bytes into a tiny instance — a
// special-case or LoRA library, 1–6 servers, 2–20 users, a uniform
// capacity from zero through several model sizes to unbounded — and up to
// 8 outages, recoveries, capacity changes, user moves, row swaps and
// mass-only parks or restores. After each op a
// warm Repair of Gen and Independent must equal a cold Place on a fresh
// evaluator and the test-only reference (checkAgainstReference). Run it
// with go test -run '^$' -fuzz FuzzRepairMatchesReference -fuzztime 10s
// ./internal/placement.
func FuzzRepairMatchesReference(f *testing.F) {
	// seed, lora, M, K, models, capacity, ops count, then 4 bytes per op:
	// kind (down, up, capacity, move, swap, park), mask or server, budget,
	// move or donor seed.
	f.Add([]byte{20, 0, 3, 12, 2, 40, 4, 2, 1, 20, 0, 3, 255, 0, 9, 0, 3, 0, 0, 1, 3, 0, 0})
	f.Add([]byte{21, 1, 4, 16, 10, 33, 4, 0, 0x0f, 0, 0, 3, 0xff, 0, 4, 1, 0x0f, 0, 0, 2, 2, 31, 0})
	// Every server down, then a move and a recovery.
	f.Add([]byte{22, 1, 5, 18, 12, 34, 3, 0, 0xff, 0, 0, 3, 0xaa, 0, 7, 1, 0xff, 0, 0})
	// Capacity 0 everywhere, then one server gets room back.
	f.Add([]byte{23, 0, 4, 14, 3, 0, 3, 3, 0x55, 0, 5, 2, 1, 255, 0, 2, 2, 60, 0})
	// Row swaps around a move.
	f.Add([]byte{24, 1, 4, 16, 8, 33, 3, 4, 0x5a, 0, 3, 3, 0xff, 0, 5, 4, 0x0f, 0, 9})
	// Mass-only parks, a capacity cut, the restores, then every user parked.
	f.Add([]byte{25, 0, 3, 12, 2, 40, 4, 5, 0x33, 0, 0, 2, 0, 20, 0, 5, 0x33, 0, 0, 5, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		seed := uint64(r.next())
		lora := r.next()&1 == 1
		M := 1 + int(r.next())%6
		K := 2 + int(r.next())%19
		models := int(r.next())
		var e *Evaluator
		if lora {
			e = loraFaultEval(t, M, K, 2+models%15, seed)
		} else {
			e = buildEval(t, M, K, 1+models%3, seed)
		}
		lib := e.Instance().Library()
		var maxSize int64
		for i := 0; i < lib.NumModels(); i++ {
			maxSize = max(maxSize, lib.ModelSize(i))
		}
		unit := maxSize / 32
		budget := func(b byte) int64 {
			switch b {
			case 0:
				return 0
			case 255:
				return 1 << 40
			}
			return int64(b) * unit
		}
		rf := newRepairFixture(t, e, UniformCapacities(M, budget(r.next())), nil)
		for n := int(r.next()) % 9; n > 0; n-- {
			op := faultOp{kind: int(r.next()) % numOps, mask: r.next()}
			b := r.next()
			op.budget = budget(b)
			if b == 255 {
				op.budget = -1
			}
			op.seed = seed<<8 | uint64(r.next())
			rf.repair(t, rf.apply(t, op), nil)
		}
	})
}
