package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"trimcaching/internal/placement"
	"trimcaching/internal/scenario"
)

// span is one timed call into a layer, recorded from outside the layer.
// Every op is a root span; the layer calls it makes are its children. Set-up
// is recorded as the root span of op setupOp.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// setupOp is the op id of the (last) set-up's spans.
const setupOp = -1

// tracer keeps the spans of one run in memory. Only ops started with
// traced=true record spans; every other call goes straight to the layer. The
// driver goroutine opens and closes nested spans; leaf spans may arrive from
// any goroutine (the shard engine calls placement from its cell pool).
type tracer struct {
	enabled bool
	base    time.Time

	mu     sync.Mutex
	active bool
	op     int
	cur    int // innermost open span, -1 when none
	spans  []span
}

func newTracer(enabled bool) *tracer {
	return &tracer{enabled: enabled, base: time.Now(), cur: -1}
}

// startOp begins op id; its calls record spans when the run traces and
// traced is set.
func (t *tracer) startOp(op int, traced bool) {
	t.mu.Lock()
	t.op, t.active, t.cur = op, t.enabled && traced, -1
	t.mu.Unlock()
}

// call runs fn inside a span named name.
func (t *tracer) call(name string, fn func() error) error {
	t.mu.Lock()
	if !t.active {
		t.mu.Unlock()
		return fn()
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Op: t.op, Name: name, Start: t.since(time.Now())})
	t.cur = id
	t.mu.Unlock()

	err := fn()

	end := time.Now()
	t.mu.Lock()
	t.spans[id].End = t.since(end)
	t.cur = t.spans[id].Parent
	t.mu.Unlock()
	return err
}

// leaf records a finished call under the innermost open span. Safe for
// concurrent use.
func (t *tracer) leaf(name string, start, end time.Time) {
	t.mu.Lock()
	if t.active {
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.cur, Op: t.op, Name: name, Start: t.since(start), End: t.since(end)})
	}
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// writeSpans stores the recorded spans as JSON.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - unionLen(children[s.ID], s.Start, s.End)
	}
	return self
}

// unionLen is the length of the union of the spans' intervals within
// [lo, hi].
func unionLen(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, v := range iv {
		a := max(v[0], end)
		if v[1] > a {
			total += v[1] - a
			end = v[1]
		}
	}
	return total
}

// reconcile checks the span accounting of every op: the self times of all
// spans in the op's tree, less the time concurrent siblings overlap, must
// add up to the op span's duration within 1%. It returns the worst relative
// error.
func reconcile(spans []span) (float64, error) {
	self := selfTimes(spans)
	byParent := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	type acc struct{ self, overlap int64 }
	perOp := map[int]*acc{}
	roots := map[int]span{}
	for i, s := range spans {
		a := perOp[s.Op]
		if a == nil {
			a = &acc{}
			perOp[s.Op] = a
		}
		a.self += self[i]
		// Concurrent siblings overlap; a child outside its parent is an
		// accounting error, so only the part inside the parent counts.
		var sum int64
		for _, c := range byParent[s.ID] {
			sum += max(min(c.End, s.End)-max(c.Start, s.Start), 0)
		}
		a.overlap += sum - unionLen(byParent[s.ID], s.Start, s.End)
		if s.Parent < 0 {
			if _, dup := roots[s.Op]; dup {
				return 0, fmt.Errorf("op %d has two root spans", s.Op)
			}
			roots[s.Op] = s
		}
	}
	worst := 0.0
	for op, a := range perOp {
		root, ok := roots[op]
		if !ok {
			return 0, fmt.Errorf("op %d has no root span", op)
		}
		if root.dur() <= 0 {
			continue
		}
		diff := a.self - a.overlap - root.dur()
		if diff < 0 {
			diff = -diff
		}
		rel := float64(diff) / float64(root.dur())
		if rel > worst {
			worst = rel
		}
		if rel > 0.01 {
			return worst, fmt.Errorf("op %d: self plus child times differ from the op span by %.2f%%", op, 100*rel)
		}
	}
	return worst, nil
}

// solve is one placement a timedAlgorithm returned, kept for the op's
// correctness checks.
type solve struct {
	eval *placement.Evaluator
	caps []int64
	prev *placement.Placement // repairs only
	p    *placement.Placement
}

// timedAlgorithm delegates to a warm-start placement algorithm. Each call
// records a span and queues its placement for the untimed checks. The
// engines call it like the algorithm it wraps; the shard engine calls it
// from its cell pool, so the queue is guarded.
type timedAlgorithm struct {
	inner     placement.WarmStartAlgorithm
	placeSpan string // the span name of Place calls; Repair calls record placement.repair
	tr        *tracer

	mu     sync.Mutex
	solves []solve
}

func newTimedAlgorithm(inner placement.WarmStartAlgorithm, placeSpan string, tr *tracer) *timedAlgorithm {
	return &timedAlgorithm{inner: inner, placeSpan: placeSpan, tr: tr}
}

// Name implements placement.Algorithm.
func (a *timedAlgorithm) Name() string { return a.inner.Name() }

// Place implements placement.Algorithm.
func (a *timedAlgorithm) Place(e *placement.Evaluator, caps []int64) (*placement.Placement, error) {
	start := time.Now()
	p, err := a.inner.Place(e, caps)
	a.tr.leaf(a.placeSpan, start, time.Now())
	a.queue(solve{eval: e, caps: caps, p: p}, err)
	return p, err
}

// Repair implements placement.WarmStartAlgorithm.
func (a *timedAlgorithm) Repair(e *placement.Evaluator, caps []int64, prev *placement.Placement, delta *scenario.Delta) (*placement.Placement, error) {
	start := time.Now()
	p, err := a.inner.Repair(e, caps, prev, delta)
	a.tr.leaf("placement.repair", start, time.Now())
	a.queue(solve{eval: e, caps: caps, prev: prev, p: p}, err)
	return p, err
}

func (a *timedAlgorithm) queue(s solve, err error) {
	if err != nil {
		return
	}
	a.mu.Lock()
	a.solves = append(a.solves, s)
	a.mu.Unlock()
}

// drain returns and clears the queued placements.
func (a *timedAlgorithm) drain() []solve {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.solves
	a.solves = nil
	return out
}
