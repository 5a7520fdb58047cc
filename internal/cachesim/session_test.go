package cachesim

import (
	"testing"

	"trimcaching/internal/geom"
	"trimcaching/internal/placement"
	"trimcaching/internal/rng"
	"trimcaching/internal/trace"
)

// TestServeSessionMatchesOneShot pins the session refactor: a session
// reused across many serving windows must reproduce the one-shot ServeTrace
// bit-for-bit on every window.
func TestServeSessionMatchesOneShot(t *testing.T) {
	ins, eval := buildServing(t, 41)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<30)
	p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := trace.NewSynthesizer(45, 600)
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewServeSession(ins, DefaultEventConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(42)
	for cp := 0; cp < 5; cp++ {
		tr, err := synth.WindowMapped(ins.Workload(), root.SplitIndex("ckpt", cp), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := session.Serve(ins, p, tr, root.SplitIndex("serve", cp))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ServeTrace(ins, p, tr, DefaultEventConfig(), root.SplitIndex("serve", cp))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("window %d: session result diverged from one-shot:\n%+v\nvs\n%+v", cp, got, want)
		}
	}
}

// TestServeSessionAcceptsRefreshedInstance drives the session across an
// in-place delta update and a full rebuild — the two instance refresh paths
// of the dynamics engine — and pins both against the one-shot reference.
func TestServeSessionAcceptsRefreshedInstance(t *testing.T) {
	ins, eval := buildServing(t, 43)
	caps := placement.UniformCapacities(ins.NumServers(), 1<<30)
	p, err := placement.TrimCachingGen(eval, caps, placement.GenOptions{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	session, err := NewServeSession(ins, DefaultEventConfig())
	if err != nil {
		t.Fatal(err)
	}
	synth, err := trace.NewSynthesizer(30, 600)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(44)

	// Walk every user a little and delta-update the instance in place.
	moved := make([]int, ins.NumUsers())
	pos := make([]geom.Point, ins.NumUsers())
	side := ins.Topology().Area().Side
	for k := range moved {
		moved[k] = k
		old := ins.Topology().UserPositions()[k]
		pos[k] = geom.Point{
			X: min(max(old.X+root.Uniform(-120, 120), 0), side),
			Y: min(max(old.Y+root.Uniform(-120, 120), 0), side),
		}
	}
	if _, err := ins.ReviseUsers(nil, nil, moved, pos); err != nil {
		t.Fatal(err)
	}
	tr, err := synth.WindowMapped(ins.Workload(), root.SplitIndex("ckpt", 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := session.Serve(ins, p, tr, root.SplitIndex("serve", 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ServeTrace(ins, p, tr, DefaultEventConfig(), root.SplitIndex("serve", 0))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("session on updated instance diverged:\n%+v\nvs\n%+v", got, want)
	}

	// A rebuilt instance (same dimensions) must be accepted too.
	rebuilt, err := ins.Rebuild(ins.Topology().UserPositions())
	if err != nil {
		t.Fatal(err)
	}
	got, err = session.Serve(rebuilt, p, tr, root.SplitIndex("serve", 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err = ServeTrace(rebuilt, p, tr, DefaultEventConfig(), root.SplitIndex("serve", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("session on rebuilt instance diverged:\n%+v\nvs\n%+v", got, want)
	}
}

func TestServeSessionDimMismatch(t *testing.T) {
	ins, _ := buildServing(t, 45)
	other, _ := buildServing(t, 46) // same dims, fine
	session, err := NewServeSession(ins, DefaultEventConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewPlacement(other.NumServers(), other.NumModels())
	tr := &trace.Trace{DurationS: 10}
	if _, err := session.Serve(other, p, tr, rng.New(1)); err != nil {
		t.Fatalf("same-dims instance rejected: %v", err)
	}
	wrong := placement.NewPlacement(ins.NumServers()+1, ins.NumModels())
	if _, err := session.Serve(ins, wrong, tr, rng.New(1)); err == nil {
		t.Fatal("mismatched placement must error")
	}
	if _, err := NewServeSession(nil, DefaultEventConfig()); err == nil {
		t.Fatal("nil instance must error")
	}
	bad := DefaultEventConfig()
	bad.CloudRateBps = 0
	if _, err := NewServeSession(ins, bad); err == nil {
		t.Fatal("bad config must error")
	}
}

// TestServeEmptyTrace pins the empty-window edge case: zero requests must
// report a zero hit ratio and zero latencies, not NaNs or a hang.
func TestServeEmptyTrace(t *testing.T) {
	ins, _ := buildServing(t, 47)
	p := placement.NewPlacement(ins.NumServers(), ins.NumModels())
	tr := &trace.Trace{DurationS: 600}
	res, err := ServeTrace(ins, p, tr, DefaultEventConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res != (EventResult{}) {
		t.Fatalf("empty trace produced non-zero result: %+v", res)
	}
}
