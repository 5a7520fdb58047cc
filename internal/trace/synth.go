package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"trimcaching/internal/rng"
	"trimcaching/internal/workload"
)

// Synthesizer generates the per-checkpoint request windows of a mobility
// timeline: each measurement window is an independent Poisson arrival
// process per user (rate RequestsPerUserPerHour) whose model choices follow
// the workload's Zipf request distribution. It is the arrival source of the
// dynamics engine's trace-driven measurement track.
//
// Determinism contract: WindowMapped(work, src, nil) is a pure function of
// the workload and src's seed material — user k draws from
// src.SplitIndex("user", k), so the window is independent of user
// iteration order and of any other window synthesized from a sibling
// stream. Callers derive one stream per checkpoint (for example
// src.SplitIndex("fading", cp) in the dynamics engine) and get
// reproducible, window-independent traces.
type Synthesizer struct {
	ratePerUserPerHour float64
	windowS            float64

	// Scratch reused across windows; see WindowMapped for the aliasing
	// contract. usrc is the caller-owned per-user stream so the hot loop
	// derives K streams per window without allocating.
	tr   Trace
	usrc rng.Source
}

// UserMap translates a workload slot index into the identity that keys the
// slot's arrival stream. It returns the global user id for the slot and
// whether the slot should synthesize arrivals at all. Sharded engines map
// cell-local slots to global user ids and report ghosts (slots visible for
// load accounting but owned by another cell) as not-owned, so a user's
// arrival stream is a function of their global id — bit-stable across cell
// handoffs — and each request is synthesized by exactly one cell.
type UserMap func(slot int) (global int, owned bool)

// NewSynthesizer validates the arrival parameters (CheckArrivals) and
// returns a synthesizer for them.
func NewSynthesizer(ratePerUserPerHour, windowS float64) (*Synthesizer, error) {
	if err := CheckArrivals(ratePerUserPerHour, windowS); err != nil {
		return nil, err
	}
	return &Synthesizer{ratePerUserPerHour: ratePerUserPerHour, windowS: windowS}, nil
}

// CheckArrivals reports whether a synthesizer accepts the arrival
// parameters. A zero rate is allowed and synthesizes empty windows (a
// silent cell still measures: zero requests); the window length must be
// positive. Both must be finite: a NaN would synthesize nothing without an
// error, and +Inf would never end a window. The engine configurations call
// it in their Validate, so a bad value fails before any solve runs.
func CheckArrivals(ratePerUserPerHour, windowS float64) error {
	if !(ratePerUserPerHour >= 0) || math.IsInf(ratePerUserPerHour, 1) {
		return fmt.Errorf("trace: RequestsPerUserPerHour must be finite and >= 0, got %v", ratePerUserPerHour)
	}
	if !(windowS > 0) || math.IsInf(windowS, 1) {
		return fmt.Errorf("trace: window length must be positive and finite, got %v", windowS)
	}
	return nil
}

// WindowMapped synthesizes one measurement window's request arrivals
// against the given workload, with request attribution keyed by um. The
// returned trace aliases the synthesizer's scratch and is only valid until
// the next call; callers that need to keep it must copy the Requests slice.
// A nil um is the identity map (slot == global id, all slots owned). The
// emitted Request.User remains the local slot index — it must index the
// serving instance — while the arrival stream (times and model draws) is
// derived from the global id, so the stream survives slot renumbering.
// Steady state allocates nothing: requests reuse the trace scratch once it
// has grown to the high-water window size.
func (s *Synthesizer) WindowMapped(work *workload.Workload, src *rng.Source, um UserMap) (*Trace, error) {
	if work == nil {
		return nil, fmt.Errorf("trace: workload is required")
	}
	if src == nil {
		return nil, fmt.Errorf("trace: random source is required")
	}
	s.tr.DurationS = s.windowS
	s.tr.Requests = s.tr.Requests[:0]
	if s.ratePerUserPerHour == 0 {
		return &s.tr, nil
	}
	ratePerSec := s.ratePerUserPerHour / 3600
	for k := 0; k < work.NumUsers(); k++ {
		g := k
		if um != nil {
			global, owned := um(k)
			if !owned {
				continue
			}
			g = global
		}
		usrc := src.SplitIndexInto(&s.usrc, "user", g)
		probRow := work.ProbRow(k)
		for t := usrc.Exp() / ratePerSec; t < s.windowS; t += usrc.Exp() / ratePerSec {
			s.tr.Requests = append(s.tr.Requests, Request{
				TimeS: t,
				User:  k,
				Model: usrc.Categorical(probRow),
			})
		}
	}
	slices.SortFunc(s.tr.Requests, func(a, b Request) int {
		if c := cmp.Compare(a.TimeS, b.TimeS); c != 0 {
			return c
		}
		return cmp.Compare(a.User, b.User)
	})
	return &s.tr, nil
}
