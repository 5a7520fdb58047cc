package cachesim

import (
	"container/heap"
	"testing"
	"unsafe"

	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/trace"
)

// boxedEventHeap is the container/heap reference the hand-rolled event heap
// replaced. It lives only in this test, as the oracle for pop-order
// equivalence.
type boxedEventHeap []event

func (h boxedEventHeap) Len() int { return len(h) }
func (h boxedEventHeap) Less(a, b int) bool {
	if h[a].timeS != h[b].timeS {
		return h[a].timeS < h[b].timeS
	}
	return h[a].seq < h[b].seq
}
func (h boxedEventHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *boxedEventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *boxedEventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestEventHeapMatchesContainerHeap pins the hand-rolled heap's pop order
// bit-identical to container/heap on randomized event sets, including
// duplicate timestamps (broken by seq) and interleaved pushes and pops —
// the access pattern Serve actually generates when radio-start events are
// pushed mid-drain.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 50; trial++ {
		var hand eventHeap
		var boxed boxedEventHeap
		seq := 0
		push := func() {
			// Coarse timestamps force frequent ties so the seq tie-break is
			// actually exercised.
			ev := event{
				timeS:  float64(src.Intn(40)) / 8,
				kind:   eventKind(1 + src.Intn(2)),
				reqIdx: seq,
				seq:    seq,
			}
			seq++
			hand.push(ev)
			heap.Push(&boxed, ev)
		}
		pop := func() {
			if len(hand) == 0 {
				return
			}
			got := hand.pop()
			want := heap.Pop(&boxed).(event)
			if got != want {
				t.Fatalf("trial %d: pop %+v, container/heap pops %+v", trial, got, want)
			}
		}
		for op := 0; op < 400; op++ {
			if src.Float64() < 0.6 {
				push()
			} else {
				pop()
			}
		}
		for len(hand) > 0 {
			pop()
		}
		if boxed.Len() != 0 {
			t.Fatalf("trial %d: reference heap has %d leftover events", trial, boxed.Len())
		}
	}
}

// TestServeSteadyStateAllocFree pins the serve hot path at zero allocations
// once the session scratch has grown to the trace's high-water mark: the
// event heap, flow pool, request states, and latency buffer must all be
// reused across Serve calls.
func TestServeSteadyStateAllocFree(t *testing.T) {
	ins, eval := buildServing(t, 83)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<30)
	p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := trace.NewSynthesizer(240, 600)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := synth.WindowMapped(ins.Workload(), rng.New(9).Split("window"), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServeSession(ins, DefaultEventConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(5)
	var serveSrc rng.Source
	for warm := 0; warm < 3; warm++ {
		if _, err := s.Serve(ins, p, tr, root.SplitIndexInto(&serveSrc, "serve", warm)); err != nil {
			t.Fatal(err)
		}
	}
	cp := 0
	if avg := testing.AllocsPerRun(5, func() {
		cp++
		if _, err := s.Serve(ins, p, tr, root.SplitIndexInto(&serveSrc, "serve", cp)); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state Serve allocates %.1f times per run, want 0", avg)
	}
}

// TestMemoryBytesSizes guards the unsafe-free struct-size constants
// MemoryBytes accounts with against the compiler's real layout.
func TestMemoryBytesSizes(t *testing.T) {
	if got := unsafe.Sizeof(reqState{}); got != unsafeSizeofReqState {
		t.Fatalf("reqState is %d bytes, accounting constant says %d", got, unsafeSizeofReqState)
	}
	if got := unsafe.Sizeof(flow{}); got != unsafeSizeofFlow {
		t.Fatalf("flow is %d bytes, accounting constant says %d", got, unsafeSizeofFlow)
	}
	if got := unsafe.Sizeof(event{}); got != unsafeSizeofEvent {
		t.Fatalf("event is %d bytes, accounting constant says %d", got, unsafeSizeofEvent)
	}
}
