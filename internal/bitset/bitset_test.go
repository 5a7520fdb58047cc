package bitset

import (
	"testing"

	"trimcaching/internal/rng"
)

func TestWords(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := Words(n); got != want {
			t.Errorf("Words(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSetClearHas(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 127, 199} {
		if s.Has(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 5 {
		t.Fatalf("Clear(64) failed: count %d", s.Count())
	}
	if !s.Any() {
		t.Fatal("Any = false on non-empty set")
	}
	s.Zero()
	if s.Any() || s.Count() != 0 {
		t.Fatal("Zero left bits behind")
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := New(n)
		s.Set(0) // ensure SetAll overwrites
		s.SetAll(n)
		if got := s.Count(); got != n {
			t.Fatalf("SetAll(%d): Count = %d", n, got)
		}
		// No stray bits beyond the universe.
		if n&63 != 0 && s[len(s)-1]>>(uint(n)&63) != 0 {
			t.Fatalf("SetAll(%d) set bits past the universe", n)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	a, b := New(150), New(150)
	for i := 0; i < 150; i += 3 {
		a.Set(i)
	}
	for i := 0; i < 150; i += 5 {
		b.Set(i)
	}
	union := append(Set(nil), a...)
	union.Or(b)
	diff := append(Set(nil), a...)
	diff.AndNot(b)
	inter := append(Set(nil), a...)
	inter.AndNot(diff)
	for i := 0; i < 150; i++ {
		in3, in5 := i%3 == 0, i%5 == 0
		if union.Has(i) != (in3 || in5) {
			t.Fatalf("union bit %d wrong", i)
		}
		if inter.Has(i) != (in3 && in5) {
			t.Fatalf("intersection bit %d wrong", i)
		}
		if diff.Has(i) != (in3 && !in5) {
			t.Fatalf("difference bit %d wrong", i)
		}
	}
	if !Intersects(a, b) {
		t.Fatal("Intersects(a, b) = false, sets share bit 0")
	}
	only64 := New(150)
	only64.Set(64)
	only65 := New(150)
	only65.Set(65)
	if Intersects(only64, only65) {
		t.Fatal("disjoint singletons intersect")
	}
	if !only64.Equal(append(Set(nil), only64...)) || only64.Equal(only65) {
		t.Fatal("Equal misbehaves")
	}
	if !inter.SubsetOf(a) || !inter.SubsetOf(b) || !a.SubsetOf(union) || !New(150).SubsetOf(b) {
		t.Fatal("SubsetOf rejects a subset")
	}
	if a.SubsetOf(b) || union.SubsetOf(a) || only64.SubsetOf(only65) {
		t.Fatal("SubsetOf accepts a non-subset")
	}
}

func TestForEach(t *testing.T) {
	s := New(300)
	want := []int{0, 2, 63, 64, 65, 128, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("ForEach order: got %v, want %v (ascending)", got, want)
		}
	}
}

// TestAgainstBoolReference fuzzes the packed ops against a []bool model.
func TestAgainstBoolReference(t *testing.T) {
	const n = 197
	src := rng.New(42)
	ref := make([]bool, n)
	s := New(n)
	for step := 0; step < 5000; step++ {
		i := src.Intn(n)
		if src.Float64() < 0.5 {
			ref[i] = true
			s.Set(i)
		} else {
			ref[i] = false
			s.Clear(i)
		}
	}
	count := 0
	for i, v := range ref {
		if s.Has(i) != v {
			t.Fatalf("bit %d: packed %v, reference %v", i, s.Has(i), v)
		}
		if v {
			count++
		}
	}
	if s.Count() != count {
		t.Fatalf("Count = %d, reference %d", s.Count(), count)
	}
}
