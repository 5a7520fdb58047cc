// Package trace generates and (de)serializes model-download request traces:
// per-user Poisson arrival processes with Zipf-distributed model choices,
// matching the demand model of §VII-A. Traces drive the event-driven
// serving simulator (internal/cachesim) and can be persisted as JSON Lines
// for replay across runs. Generate samples one whole-horizon trace;
// Synthesizer emits the per-checkpoint windows consumed by the dynamics
// engine's trace-driven measurement track, each a pure function of the
// workload and a per-window RNG split (rng.SplitIndex) so timelines stay
// deterministic for any evaluation order or worker count.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"trimcaching/internal/rng"
	"trimcaching/internal/workload"
)

// Request is one model-download request.
type Request struct {
	// TimeS is the arrival time in seconds from the trace start.
	TimeS float64 `json:"timeS"`
	// User is the requesting user index k.
	User int `json:"user"`
	// Model is the requested model index i.
	Model int `json:"model"`
}

// Trace is a time-ordered request sequence.
type Trace struct {
	// DurationS is the trace horizon in seconds.
	DurationS float64 `json:"durationS"`
	// Requests are sorted by ascending TimeS.
	Requests []Request `json:"requests"`
}

// Generate samples a trace: each user emits a Poisson process with the
// given rate; each request draws a model from the user's request
// distribution.
func Generate(work *workload.Workload, ratePerUserPerHour, durationS float64, src *rng.Source) (*Trace, error) {
	if work == nil {
		return nil, fmt.Errorf("trace: workload is required")
	}
	if !(ratePerUserPerHour > 0) || math.IsInf(ratePerUserPerHour, 1) || !(durationS > 0) || math.IsInf(durationS, 1) {
		return nil, fmt.Errorf("trace: rate (%v) and duration (%v) must be positive and finite",
			ratePerUserPerHour, durationS)
	}
	ratePerSec := ratePerUserPerHour / 3600
	tr := &Trace{DurationS: durationS}
	probRow := make([]float64, work.NumModels())
	for k := 0; k < work.NumUsers(); k++ {
		for i := range probRow {
			probRow[i] = work.Prob(k, i)
		}
		// Exponential inter-arrival times.
		t := src.Exp() / ratePerSec
		for t < durationS {
			tr.Requests = append(tr.Requests, Request{
				TimeS: t,
				User:  k,
				Model: src.Categorical(probRow),
			})
			t += src.Exp() / ratePerSec
		}
	}
	sort.Slice(tr.Requests, func(a, b int) bool {
		if tr.Requests[a].TimeS != tr.Requests[b].TimeS {
			return tr.Requests[a].TimeS < tr.Requests[b].TimeS
		}
		return tr.Requests[a].User < tr.Requests[b].User
	})
	return tr, nil
}

// Validate checks the trace against the given user/model counts and time
// ordering.
func (t *Trace) Validate(numUsers, numModels int) error {
	if t.DurationS <= 0 {
		return fmt.Errorf("trace: non-positive duration %v", t.DurationS)
	}
	prev := -1.0
	for idx, r := range t.Requests {
		if r.TimeS < 0 || r.TimeS > t.DurationS {
			return fmt.Errorf("trace: request %d at %v outside [0, %v]", idx, r.TimeS, t.DurationS)
		}
		if r.TimeS < prev {
			return fmt.Errorf("trace: request %d out of order", idx)
		}
		prev = r.TimeS
		if r.User < 0 || r.User >= numUsers {
			return fmt.Errorf("trace: request %d user %d outside [0, %d)", idx, r.User, numUsers)
		}
		if r.Model < 0 || r.Model >= numModels {
			return fmt.Errorf("trace: request %d model %d outside [0, %d)", idx, r.Model, numModels)
		}
	}
	return nil
}

// header is the first JSONL record, carrying trace metadata.
type header struct {
	DurationS float64 `json:"durationS"`
	Requests  int     `json:"requests"`
}

// WriteJSONL writes the trace as JSON Lines: a header record followed by
// one record per request.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{DurationS: t.DurationS, Requests: len(t.Requests)}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for idx := range t.Requests {
		if err := enc.Encode(&t.Requests[idx]); err != nil {
			return fmt.Errorf("trace: write request %d: %w", idx, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadJSONL reads a trace written by WriteJSONL. The request slice grows
// with the records actually read, never from the header's count, which an
// untrusted file can set to anything.
func ReadJSONL(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if h.Requests < 0 {
		return nil, fmt.Errorf("trace: negative request count %d", h.Requests)
	}
	tr := &Trace{DurationS: h.DurationS}
	for i := 0; i < h.Requests; i++ {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("trace: read request %d: %w", i, err)
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr, nil
}
