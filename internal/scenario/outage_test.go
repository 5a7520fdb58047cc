package scenario

import (
	"math"
	"testing"

	"trimcaching/internal/bitset"
)

// outageFixture is reviseFixture plus a generation bump so lazily-built
// state (flip index, update scratch) exists before the outage path runs.
func outageFixture(t *testing.T) (*Instance, []int) {
	t.Helper()
	ins, _, _, _, _ := reviseFixture(t)
	downed := []int{1, 3}
	return ins, downed
}

// TestSetServersDownMatchesColdReducedInstance pins the outage-repair
// contract's instance half: after SetServersDown, every rate, reachability
// row, and inverted mask is bit-identical to a freshly built instance that
// had the same servers taken down immediately after construction (the cold
// "reduced instance") — and to Rebuild's output, which re-applies the down
// set. No derived state may remember that the servers were ever up.
func TestSetServersDownMatchesColdReducedInstance(t *testing.T) {
	ins, downed := outageFixture(t)
	if _, err := ins.SetServersDown(downed, true); err != nil {
		t.Fatal(err)
	}

	cold, _, _, _, _ := reviseFixture(t)
	if _, err := cold.SetServersDown(downed, true); err != nil {
		t.Fatal(err)
	}
	sameInstanceState(t, "warm outage vs cold reduced", ins, cold)

	rebuilt, err := ins.Rebuild(ins.Topology().UserPositions())
	if err != nil {
		t.Fatal(err)
	}
	sameInstanceState(t, "rebuild carries the down set", rebuilt, cold)

	for _, m := range downed {
		if !ins.serverDown(m) {
			t.Fatalf("server %d not reported down", m)
		}
		for k := 0; k < ins.NumUsers(); k++ {
			if r := ins.AvgRateBps(m, k); r != 0 {
				t.Fatalf("down server %d still has rate %v to user %d", m, r, k)
			}
		}
	}
	if got := ins.DownServers(); len(got) != len(downed) {
		t.Fatalf("DownServers() = %v, want %v", got, downed)
	}
}

// TestSetServersDownRecoveryRoundTrip pins the recovery half: because an
// outage changes no association geometry, bringing the servers back must
// restore the instance bit-for-bit — rates, relay choices, reachability.
func TestSetServersDownRecoveryRoundTrip(t *testing.T) {
	ins, downed := outageFixture(t)
	pristine, _, _, _, _ := reviseFixture(t)

	if _, err := ins.SetServersDown(downed, true); err != nil {
		t.Fatal(err)
	}
	delta, err := ins.SetServersDown(downed, false)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Gen != ins.Generation() {
		t.Fatalf("delta generation %d, instance at %d", delta.Gen, ins.Generation())
	}
	sameInstanceState(t, "outage+recovery round trip", ins, pristine)
	if n := len(ins.DownServers()); n != 0 {
		t.Fatalf("%d servers still down after recovery", n)
	}
}

// TestSetServersDownDeltaCoversChangedPairs pins the delta contract: Pairs
// must cover every (server, model) pair whose tracked user mask changed,
// so a warm evaluator repairs over exactly the affected columns.
func TestSetServersDownDeltaCoversChangedPairs(t *testing.T) {
	ins, downed := outageFixture(t)
	M, I := ins.NumServers(), ins.NumModels()
	before := make([]bitset.Set, M*I)
	for m := 0; m < M; m++ {
		for i := 0; i < I; i++ {
			before[m*I+i] = append(bitset.Set(nil), ins.UserMask(m, i)...)
		}
	}
	delta, err := ins.SetServersDown(downed, true)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for m := 0; m < M; m++ {
		for i := 0; i < I; i++ {
			if !ins.UserMask(m, i).Equal(before[m*I+i]) {
				changed++
				if !delta.Pairs.Has(m*I + i) {
					t.Fatalf("pair (server %d, model %d) changed but is not in the delta", m, i)
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("outage changed no user masks; fixture too small to exercise the path")
	}
}

// TestSetServersDownNoToggleIsNoOp pins that re-downing already-down
// servers does not bump the generation or emit pairs.
func TestSetServersDownNoToggleIsNoOp(t *testing.T) {
	ins, downed := outageFixture(t)
	if _, err := ins.SetServersDown(downed, true); err != nil {
		t.Fatal(err)
	}
	gen := ins.Generation()
	delta, err := ins.SetServersDown(downed, true)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Generation() != gen {
		t.Fatalf("no-op toggle bumped generation %d -> %d", gen, ins.Generation())
	}
	if delta.Gen != gen || delta.Pairs.Count() != 0 || len(delta.Users) != 0 {
		t.Fatalf("no-op delta carries work: gen %d pairs %d users %d", delta.Gen, delta.Pairs.Count(), len(delta.Users))
	}
}

// TestSetServersDownLatencyInfinite pins the latency view: a request served
// by a down server is unservable (infinite latency), so measurement paths
// that consult latency agree with the reachability tables.
func TestSetServersDownLatencyInfinite(t *testing.T) {
	ins, downed := outageFixture(t)
	if _, err := ins.SetServersDown(downed, true); err != nil {
		t.Fatal(err)
	}
	m := downed[0]
	for k := 0; k < ins.NumUsers(); k++ {
		for i := 0; i < ins.NumModels(); i++ {
			if l := ins.latencyS(m, k, i); !math.IsInf(l, 1) {
				t.Fatalf("latency(user %d, model %d) via down server %d = %v, want +Inf", k, i, m, l)
			}
		}
	}
}
