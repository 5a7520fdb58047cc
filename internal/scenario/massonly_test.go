package scenario

import (
	"testing"
)

// TestReviseUsersMassOnlyMatchesFullRebind is the mass-only property pin:
// when only probability rows change (deadline and inference rows stay
// bound), the cheap mass-only revise path must be bit-identical to the
// full rebind path and to a fresh build — reachability untouched, masses
// and the inverted tracking index refreshed — and the instance's total
// mass must equal the canonical ascending-user, ascending-model
// resummation, independent of which users were revised.
func TestReviseUsersMassOnlyMatchesFullRebind(t *testing.T) {
	massIns, massWork, parent, _, users := reviseFixture(t)
	fullIns, fullWork, _, _, _ := reviseFixture(t)
	K, I := massIns.NumUsers(), massIns.NumModels()

	// Prime lazily-built state so both paths run their incremental forms.
	if _, err := massIns.ReviseUsers(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fullIns.ReviseUsers(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Three rounds of prob-row-only churn: scaled rows (mass surge), a row
	// zeroed (user goes idle), and a row restored to its base profile.
	for round := 0; round < 3; round++ {
		var revised []int
		for k := round; k < K; k += 2 {
			revised = append(revised, k)
			row := make([]float64, I)
			base := parent.ProbRow(k)
			switch {
			case round == 0:
				for i := range row {
					row[i] = 1.5 * base[i]
				}
			case round == 1 && k%4 == 1:
				// leave row all-zero: the user drops out of tracking
			default:
				copy(row, base)
			}
			if err := massWork.SetUserProbRow(k, row); err != nil {
				t.Fatal(err)
			}
			if err := fullWork.SetUserProbRow(k, append([]float64(nil), row...)); err != nil {
				t.Fatal(err)
			}
		}
		revGen := massIns.RevisionGeneration()
		if _, err := massIns.ReviseUsers(nil, revised, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := fullIns.ReviseUsers(revised, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		sameInstanceState(t, "mass-only vs full rebind", massIns, fullIns)

		fresh, err := massIns.Rebuild(users)
		if err != nil {
			t.Fatal(err)
		}
		sameInstanceState(t, "mass-only vs fresh build", massIns, fresh)

		// The revision must advance the revision generation, so evaluators
		// refresh their probability tables before the next solve.
		if got := massIns.RevisionGeneration(); got != revGen+1 {
			t.Fatalf("round %d: revision generation %d after a mass-only revision, want %d", round, got, revGen+1)
		}

		// Total mass is the canonical ascending resummation, not an
		// incrementally patched accumulator.
		var want float64
		for k := 0; k < K; k++ {
			for _, p := range massWork.ProbRow(k) {
				want += p
			}
		}
		if got := massIns.TotalMass(); got != want {
			t.Fatalf("round %d: total mass %.17g, want resummation %.17g", round, got, want)
		}
	}
}
