// Package pool runs indexed tasks on a bounded set of goroutines. It is the
// one owner of the repository's concurrency rules — the trial, realization
// block, shard cell and update-share loops all run on Run:
//
//   - Size resolves a worker count: ≤ 0 means GOMAXPROCS, and an explicit
//     count is honoured as given. Run takes its count as passed.
//   - One worker runs the tasks inline, in order, on the calling goroutine,
//     and allocates nothing.
//   - The error returned is the lowest-numbered failing task's, which is
//     what a serial loop returns, at any worker count.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is a set of indexed tasks. Do runs task i on worker w, where
// 0 ≤ w < min(workers, n); one worker runs one task at a time, so scratch
// indexed by w needs no locking.
type Task interface {
	Do(w, i int) error
}

// Func adapts a closure to Task. Converting a closure to a Task allocates,
// so allocation-free paths pass a pointer to a task value they own.
type Func func(w, i int) error

// Do implements Task.
func (f Func) Do(w, i int) error { return f(w, i) }

// Size resolves a worker count for n tasks: workers ≤ 0 means GOMAXPROCS,
// and the result is clamped to [1, n] (1 when n ≤ 0).
func Size(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// Run runs tasks 0 … n-1 of t on min(workers, n) workers and returns the
// lowest-numbered failing task's error, or nil.
//
// With at most one worker the tasks run inline in order, and Run returns
// at the first error without allocating. Otherwise the calling goroutine
// is worker 0 beside min(workers, n)-1 spawned ones. Tasks are handed out
// in ascending order from one counter, and none after a failure; every
// task below a failing one has then been claimed and runs to completion,
// so the lowest failing task always runs and its error wins. Tasks above
// it may or may not run.
func Run(workers, n int, t Task) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := t.Do(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	// One allocation for the call's shared state, plus one per spawned
	// goroutine (its closure).
	r := &run{t: t, n: int64(n), errAt: n}
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			r.work(w)
		}()
	}
	r.work(0)
	r.wg.Wait()
	return r.err
}

// run is one parallel Run call's shared state.
type run struct {
	t    Task
	n    int64
	next atomic.Int64 // the next task to hand out; ≥ n once done or failed
	wg   sync.WaitGroup

	mu    sync.Mutex
	err   error
	errAt int // the index of err's task; n while none failed
}

// work claims and runs tasks on worker w until none is left to hand out.
func (r *run) work(w int) {
	for {
		i := r.next.Add(1) - 1
		if i >= r.n {
			return
		}
		if err := r.t.Do(w, int(i)); err != nil {
			r.next.Store(r.n) // hand out no further task
			r.mu.Lock()
			if int(i) < r.errAt {
				r.err, r.errAt = err, int(i)
			}
			r.mu.Unlock()
			return
		}
	}
}
