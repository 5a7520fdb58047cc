package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// countTask counts each task's runs and checks the worker contract: w is
// below the worker bound, and no two tasks overlap on one worker.
type countTask struct {
	t      *testing.T
	bound  int
	runs   []atomic.Int32
	busy   []atomic.Bool
	failAt map[int]bool
}

func (c *countTask) Do(w, i int) error {
	if w < 0 || w >= c.bound {
		c.t.Errorf("task %d on worker %d, want w < %d", i, w, c.bound)
		return nil
	}
	if !c.busy[w].CompareAndSwap(false, true) {
		c.t.Errorf("task %d overlaps another task on worker %d", i, w)
	}
	defer c.busy[w].Store(false)
	c.runs[i].Add(1)
	if c.failAt[i] {
		return fmt.Errorf("task %d failed", i)
	}
	return nil
}

func newCountTask(t *testing.T, workers, n int, failAt ...int) *countTask {
	c := &countTask{
		t:      t,
		bound:  max(1, min(workers, n)),
		runs:   make([]atomic.Int32, n),
		busy:   make([]atomic.Bool, max(1, workers)),
		failAt: map[int]bool{},
	}
	for _, i := range failAt {
		c.failAt[i] = true
	}
	return c
}

func TestRunEveryTaskOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 8} {
			c := newCountTask(t, workers, n)
			if err := Run(workers, n, c); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range c.runs {
				if got := c.runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: task %d ran %d times, want 1", n, workers, i, got)
				}
			}
		}
	}
}

// TestRunLowestErrorWins pins the serial loop's error at every worker
// count: with tasks 37, 71 and 90 failing, Run returns task 37's error,
// and every task below 37 has run exactly once. Repeated so the race
// detector and the scheduler see many interleavings.
func TestRunLowestErrorWins(t *testing.T) {
	const n = 100
	reps := 200
	if testing.Short() {
		reps = 20
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for rep := 0; rep < reps; rep++ {
			c := newCountTask(t, workers, n, 90, 71, 37)
			err := Run(workers, n, c)
			if err == nil || err.Error() != "task 37 failed" {
				t.Fatalf("workers=%d rep %d: err = %v, want task 37's", workers, rep, err)
			}
			for i := 0; i <= 37; i++ {
				if got := c.runs[i].Load(); got != 1 {
					t.Fatalf("workers=%d rep %d: task %d ran %d times, want 1", workers, rep, i, got)
				}
			}
			for i := 38; i < n; i++ {
				if got := c.runs[i].Load(); got > 1 {
					t.Fatalf("workers=%d rep %d: task %d ran %d times", workers, rep, i, got)
				}
			}
		}
	}
}

// TestRunInlineStopsAtFirstError checks that one worker runs the tasks in
// order on worker 0 and stops at the first failure, as a serial loop does.
func TestRunInlineStopsAtFirstError(t *testing.T) {
	var order []int
	stop := errors.New("stop")
	err := Run(1, 10, Func(func(w, i int) error {
		if w != 0 {
			t.Errorf("task %d on worker %d", i, w)
		}
		order = append(order, i)
		if i == 4 {
			return stop
		}
		return nil
	}))
	if err != stop {
		t.Fatalf("err = %v, want %v", err, stop)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("ran %v, want [0 1 2 3 4]", order)
	}
}

type nopTask struct{}

func (*nopTask) Do(_, _ int) error { return nil }

func TestRunInlineAllocFree(t *testing.T) {
	task := &nopTask{}
	for _, workers := range []int{0, 1} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := Run(workers, 64, task); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("workers=%d: Run allocated %v times per call, want 0", workers, allocs)
		}
	}
	// More workers than tasks still runs inline when only one task exists.
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Run(8, 1, task); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("one task: Run allocated %v times per call, want 0", allocs)
	}
}

func TestSize(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, n, want int }{
		{1, 10, 1},
		{4, 10, 4},
		{4, 3, 3},
		{0, 1, 1},
		{0, 1 << 30, gmp},
		{-1, 1 << 30, gmp},
		{-5, 2, min(gmp, 2)},
		{0, 0, 1},
		{3, 0, 1},
		{3, -2, 1},
		{gmp + 5, 1 << 30, gmp + 5}, // an explicit count is not clamped to GOMAXPROCS
	} {
		if got := Size(tc.workers, tc.n); got != tc.want {
			t.Errorf("Size(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// BenchmarkRun reports one Run call's cost and allocations over 64 trivial
// tasks at one and two workers.
func BenchmarkRun(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			task := &nopTask{}
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := Run(workers, 64, task); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
