package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleTaskRunsToCompletion(t *testing.T) {
	p := NewPool(1)
	var n int
	p.Worker(0).Add(TaskFunc{TaskName: "count", Fn: func() Status {
		n++
		if n == 10 {
			return Done
		}
		return Ready
	}})
	p.Run()
	if n != 10 {
		t.Fatalf("steps = %d, want 10", n)
	}
	st := p.Stats()
	if st.Steps != 10 || st.ReadySteps != 9 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIdleTasksDoNotStallReadyTasks(t *testing.T) {
	// An always-idle "RDMA poll" task must not prevent a compute task from
	// making progress on the same worker (§5.3).
	p := NewPool(1)
	var computeSteps, pollSteps int
	var stopPolling atomic.Bool
	p.Worker(0).Add(TaskFunc{TaskName: "poll", Fn: func() Status {
		pollSteps++
		if stopPolling.Load() {
			return Done
		}
		return Idle
	}})
	p.Worker(0).Add(TaskFunc{TaskName: "compute", Fn: func() Status {
		computeSteps++
		if computeSteps == 1000 {
			stopPolling.Store(true)
			return Done
		}
		return Ready
	}})
	p.Run()
	if computeSteps != 1000 {
		t.Fatalf("compute steps = %d", computeSteps)
	}
	if pollSteps == 0 {
		t.Fatal("poll task never interleaved")
	}
}

func TestMultiWorkerIsolation(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	counts := make([]int, workers)
	for i := 0; i < workers; i++ {
		i := i
		p.Worker(i).Add(TaskFunc{TaskName: "w", Fn: func() Status {
			counts[i]++
			if counts[i] == 100 {
				return Done
			}
			return Ready
		}})
	}
	p.Run()
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("worker %d ran %d steps", i, c)
		}
	}
}

func TestDynamicAdd(t *testing.T) {
	p := NewPool(1)
	var childRan bool
	var parentSteps int
	w := p.Worker(0)
	w.Add(TaskFunc{TaskName: "parent", Fn: func() Status {
		parentSteps++
		if parentSteps == 5 {
			w.Add(TaskFunc{TaskName: "child", Fn: func() Status {
				childRan = true
				return Done
			}})
			return Done
		}
		return Ready
	}})
	p.Run()
	if !childRan {
		t.Fatal("dynamically added task never ran")
	}
}

func TestStop(t *testing.T) {
	p := NewPool(2)
	var spins atomic.Int64
	for i := 0; i < 2; i++ {
		p.Worker(i).Add(TaskFunc{TaskName: "spin", Fn: func() Status {
			if spins.Add(1) == 100 {
				p.Stop()
			}
			return Ready
		}})
	}
	p.Run() // must return because of Stop even though tasks never finish
	if spins.Load() < 100 {
		t.Fatalf("spins = %d", spins.Load())
	}
}

func TestInvalidStatusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid status")
		}
	}()
	w := &Worker{}
	w.Add(TaskFunc{TaskName: "bad", Fn: func() Status { return Status(42) }})
	w.run()
}

func TestIdleRoundsCounted(t *testing.T) {
	p := NewPool(1)
	n := 0
	p.Worker(0).Add(TaskFunc{TaskName: "mostly-idle", Fn: func() Status {
		n++
		if n >= 50 {
			return Done
		}
		return Idle
	}})
	p.Run()
	if st := p.Stats(); st.IdleRounds == 0 {
		t.Fatalf("idle rounds not counted: %+v", st)
	}
}

func TestAddWorkerWhileRunning(t *testing.T) {
	// An elastic deployment grows the pool mid-run: a worker added while the
	// pool is draining must be launched and its tasks must run to Done.
	p := NewPool(1)
	var grown atomic.Bool
	var late atomic.Int64
	gate := make(chan struct{})
	p.Worker(0).Add(TaskFunc{TaskName: "holder", Fn: func() Status {
		if grown.Load() {
			<-gate
			return Done
		}
		return Idle
	}})
	go func() {
		p.AddWorker(TaskFunc{TaskName: "late", Fn: func() Status {
			if late.Add(1) == 5 {
				return Done
			}
			return Ready
		}})
		grown.Store(true)
		close(gate)
	}()
	p.Run()
	if got := late.Load(); got != 5 {
		t.Fatalf("late task stepped %d times, want 5", got)
	}
	if p.Size() != 2 {
		t.Fatalf("Size() = %d", p.Size())
	}
}

func TestStartWaitSplit(t *testing.T) {
	p := NewPool(1)
	var n int
	p.Worker(0).Add(TaskFunc{TaskName: "count", Fn: func() Status {
		n++
		if n == 3 {
			return Done
		}
		return Ready
	}})
	p.Start()
	p.Wait()
	if n != 3 {
		t.Fatalf("steps = %d", n)
	}
}

func TestEmptyPoolRuns(t *testing.T) {
	done := make(chan struct{})
	p := NewPool(0)
	go func() {
		p.Run()
		close(done)
	}()
	<-done
}

// runWithin runs the pool and fails the test if it has not drained by the
// deadline, instead of hanging the binary.
func runWithin(t *testing.T, p *Pool, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		p.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		p.Stop()
		t.Fatalf("pool did not drain within %v", d)
	}
}

func TestWakeResumesParkedWorker(t *testing.T) {
	// The fallback timer is an hour, so only the doorbell can end the park.
	p := NewPool(0)
	var rung atomic.Bool
	w := p.AddWorker(TaskFunc{TaskName: "wait-for-ring", Fn: func() Status {
		if rung.Load() {
			return Done
		}
		return Idle
	}})
	w.fallback = time.Hour
	go func() {
		// Past the spin, the worker parks at its next idle pass.
		for w.Stats().IdleRounds < idleSpins {
			time.Sleep(50 * time.Microsecond)
		}
		rung.Store(true)
		w.Wake()
	}()
	runWithin(t, p, 10*time.Second)
}

func TestFallbackStepsUnrungIdleTask(t *testing.T) {
	// Nothing ever rings: the task reaches Done only through fallback wakes.
	p := NewPool(0)
	n := 0
	w := p.AddWorker(TaskFunc{TaskName: "unrung", Fn: func() Status {
		n++
		if n == idleSpins+3 {
			return Done
		}
		return Idle
	}})
	runWithin(t, p, 10*time.Second)
	if st := w.Stats(); st.IdleRounds < idleSpins+2 {
		t.Fatalf("idle rounds = %d, want at least %d", st.IdleRounds, idleSpins+2)
	}
}

func TestWakeBeforeParkIsKept(t *testing.T) {
	// The task rings its own worker while the worker still spins; the ring
	// must survive until the park, which then returns at once instead of
	// waiting out the hour-long fallback.
	p := NewPool(0)
	var w *Worker
	n := 0
	w = p.AddWorker(TaskFunc{TaskName: "ring-early", Fn: func() Status {
		n++
		switch {
		case n == 1:
			w.Wake()
		case n > idleSpins:
			return Done
		}
		return Idle
	}})
	w.fallback = time.Hour
	runWithin(t, p, 10*time.Second)
}

func TestParkAllocatesNothing(t *testing.T) {
	w := newWorker(0)
	w.fallback = 10 * time.Microsecond
	if a := testing.AllocsPerRun(50, w.park); a != 0 {
		t.Fatalf("park by fallback timer allocates %.1f times, want 0", a)
	}
	w.fallback = time.Hour
	if a := testing.AllocsPerRun(50, func() { w.Wake(); w.park() }); a != 0 {
		t.Fatalf("park ended by Wake allocates %.1f times, want 0", a)
	}
}
