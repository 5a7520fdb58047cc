package trace

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"trimcaching/internal/rng"
	"trimcaching/internal/workload"
)

// sortRequests orders requests by (TimeS, User), the synthesizer's emission
// order, so windows assembled from multiple owners can be compared.
func sortRequests(reqs []Request) {
	slices.SortFunc(reqs, func(a, b Request) int {
		if c := cmp.Compare(a.TimeS, b.TimeS); c != 0 {
			return c
		}
		return cmp.Compare(a.User, b.User)
	})
}

func synthWorkload(t *testing.T, numUsers, numModels int) *workload.Workload {
	t.Helper()
	work, err := workload.Generate(numUsers, numModels, workload.DefaultConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return work
}

func cloneTrace(tr *Trace) *Trace {
	out := &Trace{DurationS: tr.DurationS, Requests: make([]Request, len(tr.Requests))}
	copy(out.Requests, tr.Requests)
	return out
}

func TestSynthesizerValidation(t *testing.T) {
	// NaN first: a NaN rate or window synthesized empty windows without an
	// error, and an infinite one never ended a window.
	for _, c := range []struct{ rate, window float64 }{
		{math.NaN(), 600}, {10, math.NaN()}, {math.Inf(1), 600}, {10, math.Inf(1)},
		{-1, 600}, {10, 0}, {10, -1}, {math.Inf(-1), 600},
	} {
		if _, err := NewSynthesizer(c.rate, c.window); err == nil {
			t.Fatalf("NewSynthesizer(%v, %v) accepted", c.rate, c.window)
		}
	}
	s, err := NewSynthesizer(10, 600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WindowMapped(nil, rng.New(1), nil); err == nil {
		t.Fatal("nil workload must error")
	}
	if _, err := s.WindowMapped(synthWorkload(t, 3, 4), nil, nil); err == nil {
		t.Fatal("nil source must error")
	}
}

func TestSynthesizerWindowValid(t *testing.T) {
	work := synthWorkload(t, 8, 12)
	s, err := NewSynthesizer(60, 600)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.WindowMapped(work, rng.New(3).SplitIndex("ckpt", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(work.NumUsers(), work.NumModels()); err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("60 req/user/hour over 10 min and 8 users synthesized nothing")
	}
	if tr.DurationS != 600 {
		t.Fatalf("window duration %v, want 600", tr.DurationS)
	}
}

// TestSynthesizerDeterministic pins the SplitIndex determinism contract: a
// window is a pure function of (workload, stream seed material) — the same
// stream reproduces it bit-for-bit on a fresh synthesizer, and windows do
// not depend on which other windows were synthesized before them.
func TestSynthesizerDeterministic(t *testing.T) {
	work := synthWorkload(t, 6, 10)
	root := rng.New(11)

	a, err := NewSynthesizer(40, 300)
	if err != nil {
		t.Fatal(err)
	}
	var inOrder []*Trace
	for cp := 0; cp < 4; cp++ {
		tr, err := a.WindowMapped(work, root.SplitIndex("ckpt", cp), nil)
		if err != nil {
			t.Fatal(err)
		}
		inOrder = append(inOrder, cloneTrace(tr))
	}

	// A fresh synthesizer drawing the windows in reverse order must
	// reproduce every one of them exactly.
	b, err := NewSynthesizer(40, 300)
	if err != nil {
		t.Fatal(err)
	}
	for cp := 3; cp >= 0; cp-- {
		tr, err := b.WindowMapped(work, root.SplitIndex("ckpt", cp), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := inOrder[cp]
		if len(tr.Requests) != len(want.Requests) {
			t.Fatalf("window %d: %d requests out of order vs %d in order", cp, len(tr.Requests), len(want.Requests))
		}
		for ri := range want.Requests {
			if tr.Requests[ri] != want.Requests[ri] {
				t.Fatalf("window %d request %d: %+v, want %+v", cp, ri, tr.Requests[ri], want.Requests[ri])
			}
		}
	}

	// Distinct windows must not repeat each other.
	if len(inOrder[0].Requests) == len(inOrder[1].Requests) {
		same := true
		for ri := range inOrder[0].Requests {
			if inOrder[0].Requests[ri] != inOrder[1].Requests[ri] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("windows 0 and 1 are identical; checkpoint streams are not independent")
		}
	}
}

func TestSynthesizerZeroRate(t *testing.T) {
	work := synthWorkload(t, 5, 7)
	s, err := NewSynthesizer(0, 600)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.WindowMapped(work, rng.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 0 {
		t.Fatalf("zero rate synthesized %d requests", len(tr.Requests))
	}
	if err := tr.Validate(work.NumUsers(), work.NumModels()); err != nil {
		t.Fatal(err)
	}
}

// TestSynthesizerZipfHead checks the popularity sanity: the model at the
// head of the workload's (globally permuted) Zipf ranking must receive
// clearly more requests than the tail model over many windows.
func TestSynthesizerZipfHead(t *testing.T) {
	work := synthWorkload(t, 10, 20)
	head, tail := 0, 0
	for i := 1; i < work.NumModels(); i++ {
		if work.Prob(0, i) > work.Prob(0, head) {
			head = i
		}
		if work.Prob(0, i) < work.Prob(0, tail) {
			tail = i
		}
	}
	s, err := NewSynthesizer(120, 600)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, work.NumModels())
	root := rng.New(17)
	for cp := 0; cp < 30; cp++ {
		tr, err := s.WindowMapped(work, root.SplitIndex("ckpt", cp), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tr.Requests {
			counts[r.Model]++
		}
	}
	if counts[head] <= 2*counts[tail] {
		t.Fatalf("Zipf head (model %d) got %d requests vs tail (model %d) %d; popularity skew lost",
			head, counts[head], tail, counts[tail])
	}
}

// TestSynthesizerScratchReuse documents the aliasing contract: a second
// window overwrites the previously returned trace.
func TestSynthesizerScratchReuse(t *testing.T) {
	work := synthWorkload(t, 6, 8)
	s, err := NewSynthesizer(80, 400)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.WindowMapped(work, rng.New(4).SplitIndex("ckpt", 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := cloneTrace(first)
	second, err := s.WindowMapped(work, rng.New(4).SplitIndex("ckpt", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("WindowMapped must reuse its scratch trace")
	}
	if len(snapshot.Requests) == len(second.Requests) && len(snapshot.Requests) > 0 &&
		snapshot.Requests[0] == second.Requests[0] && snapshot.Requests[len(snapshot.Requests)-1] == second.Requests[len(second.Requests)-1] {
		t.Fatal("second window left the first window's content in place")
	}
}

// TestWindowMappedIdentity pins WindowMapped(nil) == WindowMapped with an
// explicit identity map: the nil shortcut and the mapped path share
// one synthesis loop, and the unsharded engines rely on that identity.
func TestWindowMappedIdentity(t *testing.T) {
	work := synthWorkload(t, 7, 9)
	s, err := NewSynthesizer(90, 500)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(21)
	plain, err := s.WindowMapped(work, root.SplitIndex("ckpt", 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneTrace(plain)
	mapped, err := s.WindowMapped(work, root.SplitIndex("ckpt", 2), func(slot int) (int, bool) { return slot, true })
	if err != nil {
		t.Fatal(err)
	}
	if len(mapped.Requests) != len(want.Requests) {
		t.Fatalf("identity map: %d requests, want %d", len(mapped.Requests), len(want.Requests))
	}
	for i := range want.Requests {
		if mapped.Requests[i] != want.Requests[i] {
			t.Fatalf("identity map request %d: %+v, want %+v", i, mapped.Requests[i], want.Requests[i])
		}
	}
}

// TestWindowMappedPartition pins the sharding contract: if ownership of the
// user population is partitioned across two maps, the union of the two
// mapped windows is exactly the identity window — every request synthesized
// by exactly one owner, times and model draws untouched by the split.
func TestWindowMappedPartition(t *testing.T) {
	work := synthWorkload(t, 9, 11)
	root := rng.New(33)
	ref, err := NewSynthesizer(120, 400)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ref.WindowMapped(work, root.SplitIndex("ckpt", 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneTrace(plain)

	var union []Request
	for half := 0; half < 2; half++ {
		s, err := NewSynthesizer(120, 400)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.WindowMapped(work, root.SplitIndex("ckpt", 0), func(slot int) (int, bool) {
			return slot, slot%2 == half
		})
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, tr.Requests...)
	}
	if len(union) != len(want.Requests) {
		t.Fatalf("partition union has %d requests, identity window %d", len(union), len(want.Requests))
	}
	sortRequests(union)
	for i := range want.Requests {
		if union[i] != want.Requests[i] {
			t.Fatalf("partition union request %d: %+v, want %+v", i, union[i], want.Requests[i])
		}
	}
}

// TestWindowMappedGlobalKey pins that the arrival stream is keyed by the
// GLOBAL id, not the slot index: a slot table that binds global user g into
// an arbitrary slot reproduces g's identity-window arrival times bit for
// bit, with only the User field renumbered. This is what makes a sharded
// user's request stream survive cell handoffs.
func TestWindowMappedGlobalKey(t *testing.T) {
	work := synthWorkload(t, 6, 8)
	root := rng.New(44)
	ref, err := NewSynthesizer(100, 300)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ref.WindowMapped(work, root.SplitIndex("ckpt", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneTrace(plain)

	// A 3-slot cell binding globals {5, 1, 3} into slots {0, 1, 2}.
	globals := []int{5, 1, 3}
	cellWork, err := workload.NewAliased(len(globals), work.NumModels())
	if err != nil {
		t.Fatal(err)
	}
	for slot, g := range globals {
		if err := cellWork.SetUserRows(slot, work.ProbRow(g), work.DeadlineRow(g), work.InferRow(g)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSynthesizer(100, 300)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.WindowMapped(cellWork, root.SplitIndex("ckpt", 1), func(slot int) (int, bool) {
		return globals[slot], true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Re-key the cell window to global ids and compare against the identity
	// window restricted to the bound globals.
	rekeyed := make([]Request, len(tr.Requests))
	for i, r := range tr.Requests {
		rekeyed[i] = Request{TimeS: r.TimeS, User: globals[r.User], Model: r.Model}
	}
	sortRequests(rekeyed)
	bound := map[int]bool{}
	for _, g := range globals {
		bound[g] = true
	}
	var restricted []Request
	for _, r := range want.Requests {
		if bound[r.User] {
			restricted = append(restricted, r)
		}
	}
	if len(rekeyed) != len(restricted) {
		t.Fatalf("cell window has %d requests, identity restriction %d", len(rekeyed), len(restricted))
	}
	for i := range restricted {
		if rekeyed[i] != restricted[i] {
			t.Fatalf("cell request %d: %+v, want %+v", i, rekeyed[i], restricted[i])
		}
	}
}

// TestWindowSteadyStateAllocFree pins the synthesis hot path at zero
// allocations once the request scratch has reached its high-water mark.
func TestWindowSteadyStateAllocFree(t *testing.T) {
	work := synthWorkload(t, 20, 12)
	s, err := NewSynthesizer(200, 600)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(55)
	var ckptSrc rng.Source
	// Warm up the scratch to its high-water mark across several windows.
	for cp := 0; cp < 12; cp++ {
		if _, err := s.WindowMapped(work, root.SplitIndexInto(&ckptSrc, "ckpt", cp), nil); err != nil {
			t.Fatal(err)
		}
	}
	cp := 0
	if avg := testing.AllocsPerRun(8, func() {
		cp++
		if _, err := s.WindowMapped(work, root.SplitIndexInto(&ckptSrc, "ckpt", cp%12), nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state Window allocates %.1f times per run, want 0", avg)
	}
}
