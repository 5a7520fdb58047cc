package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"trimcaching/internal/rng"
	"trimcaching/internal/workload"
)

func testWorkload(t testing.TB, users, models int) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(users, models, workload.DefaultConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateValidTrace(t *testing.T) {
	w := testWorkload(t, 10, 20)
	tr, err := Generate(w, 30, 3600, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(10, 20); err != nil {
		t.Fatal(err)
	}
	// Expected request count: 10 users * 30/h * 1h = 300, Poisson spread.
	if len(tr.Requests) < 200 || len(tr.Requests) > 400 {
		t.Fatalf("%d requests, expected ~300", len(tr.Requests))
	}
	// Sorted by time.
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].TimeS < tr.Requests[i-1].TimeS {
			t.Fatal("trace not time-ordered")
		}
	}
}

func TestGenerateRespectsPopularity(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.ZipfExponent = 1.2
	w, err := workload.Generate(5, 10, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(w, 400, 3600, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for _, r := range tr.Requests {
		counts[r.Model]++
	}
	// The top-ranked model for user 0 (same ranking for all users under the
	// global permutation) must be requested more often than the
	// bottom-ranked one.
	row := w.ProbRow(0)
	hi, lo := 0, 0
	for i, p := range row {
		if p > row[hi] {
			hi = i
		}
		if p < row[lo] {
			lo = i
		}
	}
	if counts[hi] <= counts[lo] {
		t.Fatalf("popular model requested %d times vs unpopular %d", counts[hi], counts[lo])
	}
}

func TestGenerateInvalid(t *testing.T) {
	w := testWorkload(t, 2, 2)
	if _, err := Generate(nil, 10, 10, rng.New(5)); err == nil {
		t.Fatal("nil workload must error")
	}
	// NaN first, stopping at the first acceptance: an accepted NaN returned
	// an empty trace, but an accepted +Inf rate or duration never stops
	// appending requests.
	for _, c := range []struct{ rate, duration float64 }{
		{math.NaN(), 10}, {10, math.NaN()}, {math.Inf(1), 10}, {10, math.Inf(1)},
		{0, 10}, {10, 0}, {-1, 10}, {10, -1},
	} {
		if _, err := Generate(w, c.rate, c.duration, rng.New(5)); err == nil {
			t.Fatalf("Generate(rate %v, duration %v) accepted", c.rate, c.duration)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	w := testWorkload(t, 3, 4)
	tr, err := Generate(w, 60, 600, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	cases := []func(*Trace){
		func(t *Trace) { t.DurationS = 0 },
		func(t *Trace) { t.Requests[0].TimeS = -1 },
		func(t *Trace) { t.Requests[0].TimeS = t.DurationS + 1 },
		func(t *Trace) { t.Requests[0].User = 3 },
		func(t *Trace) { t.Requests[0].Model = -1 },
		func(t *Trace) {
			if len(t.Requests) > 1 {
				t.Requests[1].TimeS = 0
				t.Requests[0].TimeS = t.DurationS / 2
			}
		},
	}
	for ci, corrupt := range cases {
		cp := &Trace{DurationS: tr.DurationS, Requests: append([]Request(nil), tr.Requests...)}
		corrupt(cp)
		if err := cp.Validate(3, 4); err == nil {
			t.Fatalf("corruption %d not caught", ci)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	w := testWorkload(t, 4, 6)
	tr, err := Generate(w, 60, 1200, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.DurationS != tr.DurationS || len(back.Requests) != len(tr.Requests) {
		t.Fatalf("round trip changed shape: %v/%d vs %v/%d",
			back.DurationS, len(back.Requests), tr.DurationS, len(tr.Requests))
	}
	for i := range tr.Requests {
		if math.Abs(back.Requests[i].TimeS-tr.Requests[i].TimeS) > 1e-12 ||
			back.Requests[i].User != tr.Requests[i].User ||
			back.Requests[i].Model != tr.Requests[i].Model {
			t.Fatalf("request %d changed", i)
		}
	}
}

func TestReadJSONLMalformed(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"durationS":10,"requests":2}` + "\n" + `{"timeS":1}` + "\n")); err == nil {
		t.Fatal("truncated input must error")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"durationS":10,"requests":-1}` + "\n")); err == nil {
		t.Fatal("negative count must error")
	}
	// A header's count is untrusted: sizing the request slice from 2^62
	// panicked in makeslice before the first record was read.
	if _, err := ReadJSONL(strings.NewReader(`{"durationS":10,"requests":4611686018427387904}` + "\n" + `{"timeS":1}` + "\n")); err == nil {
		t.Fatal("a count beyond the records must error")
	}
}

// FuzzReadJSONL feeds ReadJSONL arbitrary bytes, as servesim -replay does
// with a file it did not write. Each input must either error or yield a
// trace that survives a WriteJSONL/ReadJSONL round trip unchanged, and it
// must never panic: the header's request count is untrusted.
func FuzzReadJSONL(f *testing.F) {
	tr, err := Generate(testWorkload(f, 3, 4), 60, 600, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"durationS":10,"requests":4611686018427387904}` + "\n" + `{"timeS":1}` + "\n"))
	f.Add([]byte(`{"durationS":10,"requests":-1}` + "\n"))
	f.Add([]byte{})
	f.Add([]byte(`{"durationS":10,"requests":2}` + "\n" + `{"timeS":1,"user":0,"model":1}` + "\n" + `{"timeS":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteJSONL(&out); err != nil {
			t.Fatalf("WriteJSONL of a trace ReadJSONL accepted: %v", err)
		}
		back, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("ReadJSONL rejects what WriteJSONL wrote: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip changed the trace: %+v, want %+v", back, got)
		}
	})
}

func TestGenerateDeterministic(t *testing.T) {
	w := testWorkload(t, 5, 5)
	a, err := Generate(w, 30, 600, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(w, 30, 600, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("same seed, different requests")
		}
	}
}
