package topology

import (
	"testing"
	"testing/quick"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

func paperConfig() Config {
	return Config{AreaSideM: 1000, NumServers: 10, NumUsers: 30, CoverageRadiusM: 275}
}

func TestConfigValidate(t *testing.T) {
	if err := paperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.AreaSideM = 0 },
		func(c *Config) { c.NumServers = 0 },
		func(c *Config) { c.NumUsers = -1 },
		func(c *Config) { c.CoverageRadiusM = 0 },
	}
	for i, mut := range muts {
		c := paperConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d: expected error", i)
		}
	}
}

func TestGenerateCounts(t *testing.T) {
	topo, err := Generate(paperConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumServers() != 10 || topo.NumUsers() != 30 {
		t.Fatalf("counts: %d servers %d users", topo.NumServers(), topo.NumUsers())
	}
	for m := 0; m < topo.NumServers(); m++ {
		if !topo.Area().Contains(topo.ServerPos(m)) {
			t.Fatalf("server %d outside area", m)
		}
	}
	for k := 0; k < topo.NumUsers(); k++ {
		if !topo.Area().Contains(topo.users[k]) {
			t.Fatalf("user %d outside area", k)
		}
	}
}

func TestAssociationConsistency(t *testing.T) {
	topo, err := Generate(paperConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < topo.NumUsers(); k++ {
		for _, m := range topo.ServersCovering(k) {
			if topo.Distance(m, k) > topo.CoverageRadius() {
				t.Fatalf("server %d listed for user %d at distance %v", m, k, topo.Distance(m, k))
			}
			found := false
			for _, kk := range topo.UsersOf(m) {
				if kk == k {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("Mk/Km asymmetry for m=%d k=%d", m, k)
			}
		}
	}
	// And the reverse direction: every user in Km must be within radius.
	for m := 0; m < topo.NumServers(); m++ {
		if topo.Load(m) != len(topo.UsersOf(m)) {
			t.Fatalf("Load(%d) mismatch", m)
		}
		for _, k := range topo.UsersOf(m) {
			if topo.Distance(m, k) > topo.CoverageRadius() {
				t.Fatalf("user %d in Km of %d beyond radius", k, m)
			}
		}
	}
}

func TestAssociationExhaustive(t *testing.T) {
	// Cross-check Mk against a brute-force distance scan.
	topo, err := Generate(paperConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < topo.NumUsers(); k++ {
		var want []int
		for m := 0; m < topo.NumServers(); m++ {
			if topo.Distance(m, k) <= topo.CoverageRadius() {
				want = append(want, m)
			}
		}
		got := topo.ServersCovering(k)
		if len(got) != len(want) {
			t.Fatalf("user %d: got %v want %v", k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("user %d: got %v want %v", k, got, want)
			}
		}
	}
}

func TestNewExplicitPositions(t *testing.T) {
	area, err := geom.NewArea(100)
	if err != nil {
		t.Fatal(err)
	}
	servers := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 100}}
	users := []geom.Point{{X: 10, Y: 0}, {X: 95, Y: 95}, {X: 50, Y: 50}}
	topo, err := New(area, servers, users, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.ServersCovering(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("user 0 covered by %v", got)
	}
	if got := topo.ServersCovering(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("user 1 covered by %v", got)
	}
	if got := topo.ServersCovering(2); len(got) != 0 {
		t.Fatalf("user 2 covered by %v, want none", got)
	}
}

func TestNewInvalid(t *testing.T) {
	area, err := geom.NewArea(100)
	if err != nil {
		t.Fatal(err)
	}
	p := []geom.Point{{X: 1, Y: 1}}
	if _, err := New(area, nil, p, 30); err == nil {
		t.Fatal("no servers must error")
	}
	if _, err := New(area, p, nil, 30); err == nil {
		t.Fatal("no users must error")
	}
	if _, err := New(area, p, p, 0); err == nil {
		t.Fatal("zero radius must error")
	}
}

func TestWithUserPositions(t *testing.T) {
	topo, err := Generate(paperConfig(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	moved := topo.UserPositions()
	for i := range moved {
		moved[i] = geom.Point{X: 0, Y: 0}
	}
	next, err := topo.WithUserPositions(moved)
	if err != nil {
		t.Fatal(err)
	}
	if next.NumServers() != topo.NumServers() {
		t.Fatal("servers changed")
	}
	for m := 0; m < topo.NumServers(); m++ {
		if next.ServerPos(m) != topo.ServerPos(m) {
			t.Fatal("server positions changed")
		}
	}
	// All users now at the origin: association must be identical across
	// users and consistent with server distances from the origin.
	want := next.ServersCovering(0)
	for k := 1; k < next.NumUsers(); k++ {
		got := next.ServersCovering(k)
		if len(got) != len(want) {
			t.Fatal("co-located users with different coverage")
		}
	}
}

func TestUserPositionsCopied(t *testing.T) {
	topo, err := Generate(paperConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pos := topo.UserPositions()
	orig := topo.users[0]
	pos[0] = geom.Point{X: -1, Y: -1}
	if topo.users[0] != orig {
		t.Fatal("UserPositions exposed internal state")
	}
}

// Property: association sets derived from random deployments are always
// symmetric and within radius.
func TestAssociationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		topo, err := Generate(Config{AreaSideM: 400, NumServers: 3, NumUsers: 8, CoverageRadiusM: 150}, rng.New(seed))
		if err != nil {
			return false
		}
		for k := 0; k < topo.NumUsers(); k++ {
			for _, m := range topo.ServersCovering(k) {
				if topo.Distance(m, k) > topo.CoverageRadius() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestServersIn pins the region scan behind every regional event:
// ascending server ids, closed boundaries, an empty list for a region
// holding no server, and an error for an invalid region.
func TestServersIn(t *testing.T) {
	area, err := geom.NewArea(100)
	if err != nil {
		t.Fatal(err)
	}
	servers := []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 50}, {X: 90, Y: 90}, {X: 50, Y: 10}}
	topo, err := New(area, servers, []geom.Point{{X: 0, Y: 0}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		region geom.Region
		want   []int
	}{
		{geom.RectRegion(0, 0, 50, 50), []int{0, 1, 3}},
		{geom.DiskRegion(90, 90, 0), []int{2}},
		{geom.RectRegion(60, 0, 80, 5), nil},
	}
	for _, tc := range cases {
		got, err := topo.ServersIn(tc.region)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%+v: servers %v, want %v", tc.region, got, tc.want)
		}
		for j := range got {
			if got[j] != tc.want[j] {
				t.Fatalf("%+v: servers %v, want %v", tc.region, got, tc.want)
			}
		}
	}
	if _, err := topo.ServersIn(geom.Region{Kind: "hex"}); err == nil {
		t.Fatal("an invalid region was scanned")
	}
}
