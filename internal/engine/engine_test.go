package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		q.Push(Task{Do: func() { got = append(got, i) }})
	}
	for i := 0; i < 5; i++ {
		task, ok := q.TryPop()
		if !ok {
			t.Fatal("queue drained early")
		}
		task.Do()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v", got)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty returned a task")
	}
}

func TestQueueCounters(t *testing.T) {
	q := NewQueue()
	q.Push(Task{})
	q.Push(Task{})
	if q.Len() != 2 {
		t.Fatalf("len after two pushes = %d, want 2", q.Len())
	}
	if _, ok := q.TryPop(); !ok || q.Len() != 1 {
		t.Fatalf("TryPop ok=%v, len = %d, want true/1", ok, q.Len())
	}
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	q := NewQueue()
	done := make(chan bool)
	go func() {
		_, ok := q.Pop(nil)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop returned a task after close of empty queue")
		}
	case <-time.After(time.Second):
		t.Fatal("Pop did not unblock on close")
	}
	if err := q.Push(Task{}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after close err = %v", err)
	}
}

func TestQueueStopFlagUnblocksPop(t *testing.T) {
	q := NewQueue()
	var stop atomic.Bool
	done := make(chan bool)
	go func() {
		_, ok := q.Pop(&stop)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	stop.Store(true)
	q.wakeAll()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop returned ok under stop flag")
		}
	case <-time.After(time.Second):
		t.Fatal("Pop did not observe stop flag")
	}
}

func TestComputePoolRunsTasks(t *testing.T) {
	q := NewQueue()
	p := NewPool(Compute, q)
	defer p.Shutdown()
	p.SetCount(4)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		q.Push(Task{Do: func() { n.Add(1); wg.Done() }})
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	// An engine counts a task completed after its Do returns, so the
	// last count can land just after wg.Wait does.
	for deadline := time.Now().Add(5 * time.Second); p.Completed() != 100; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("completed = %d, want 100", p.Completed())
		}
	}
}

func TestComputePoolSerializesPerEngine(t *testing.T) {
	// With one engine, tasks must never overlap.
	q := NewQueue()
	p := NewPool(Compute, q)
	defer p.Shutdown()
	p.SetCount(1)
	var concurrent, maxC atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		q.Push(Task{Do: func() {
			c := concurrent.Add(1)
			for {
				m := maxC.Load()
				if c <= m || maxC.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			concurrent.Add(-1)
			wg.Done()
		}})
	}
	wg.Wait()
	if maxC.Load() != 1 {
		t.Fatalf("compute engine overlapped tasks: max concurrency %d", maxC.Load())
	}
}

// TestComputeEngineYieldsToWaiter: a compute engine hands its goroutine
// back to the scheduler between tasks, so a caller that one task
// readied runs before the engine starts the next. On one P, the task's
// close puts the waiting goroutine in the P's runnext slot; an engine
// that went straight on to its next task would keep the P, and the
// waiter would wait a whole task. Each round pushes two tasks on a
// fresh one-engine pool: the first wakes the test goroutine, the second
// records whether that goroutine has run since.
//
// The count cannot reach every round. The yield puts the engine on the
// global run queue, and on every 61st schedule the runtime takes the
// global queue first, so then the engine runs before the waiter.
func TestComputeEngineYieldsToWaiter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 1000
	first := 0
	for i := 0; i < rounds; i++ {
		q := NewQueue()
		p := NewPool(Compute, q)
		woken := make(chan struct{})
		var waiterRan atomic.Bool
		var waiterFirst bool
		q.Push(Task{Do: func() { close(woken) }})
		q.Push(Task{Do: func() { waiterFirst = waiterRan.Load() }})
		p.SetCount(1)
		<-woken
		waiterRan.Store(true)
		p.Shutdown()
		if waiterFirst {
			first++
		}
	}
	t.Logf("the woken caller ran first in %d of %d rounds", first, rounds)
	if first < rounds*9/10 {
		t.Fatalf("the woken caller ran before the engine's next task in %d of %d rounds, want at least %d",
			first, rounds, rounds*9/10)
	}
}

func TestCommunicationPoolOverlaps(t *testing.T) {
	// One communication engine must multiplex blocked tasks.
	q := NewQueue()
	p := NewPool(Communication, q)
	defer p.Shutdown()
	p.SetCount(1)
	var concurrent, maxC atomic.Int64
	var wg sync.WaitGroup
	block := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		q.Push(Task{Do: func() {
			c := concurrent.Add(1)
			for {
				m := maxC.Load()
				if c <= m || maxC.CompareAndSwap(m, c) {
					break
				}
			}
			<-block // simulate network wait
			concurrent.Add(-1)
			wg.Done()
		}})
	}
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()
	if maxC.Load() < 2 {
		t.Fatalf("communication engine did not overlap I/O: max %d", maxC.Load())
	}
}

func TestPoolResize(t *testing.T) {
	q := NewQueue()
	p := NewPool(Compute, q)
	defer p.Shutdown()
	p.SetCount(3)
	if p.Count() != 3 {
		t.Fatalf("count = %d", p.Count())
	}
	p.SetCount(1)
	if p.Count() != 1 {
		t.Fatalf("count after shrink = %d", p.Count())
	}
	p.SetCount(-5)
	if p.Count() != 0 {
		t.Fatalf("negative resize -> %d", p.Count())
	}
	// Still functional after growing again.
	p.SetCount(2)
	var wg sync.WaitGroup
	wg.Add(1)
	q.Push(Task{Do: wg.Done})
	waitTimeout(t, &wg)
}

func TestShrinkDoesNotLoseQueuedTasks(t *testing.T) {
	q := NewQueue()
	p := NewPool(Compute, q)
	defer p.Shutdown()
	var wg sync.WaitGroup
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		wg.Add(1)
		q.Push(Task{Do: func() {
			time.Sleep(time.Millisecond)
			n.Add(1)
			wg.Done()
		}})
	}
	p.SetCount(4)
	time.Sleep(5 * time.Millisecond)
	p.SetCount(1) // shrink mid-flight
	waitTimeout(t, &wg)
	if n.Load() != 50 {
		t.Fatalf("ran %d, want 50", n.Load())
	}
}

// TestShutdownDrainsQueuedTasks: Shutdown closes the queue, and the
// engines run what was already in it before they exit. A task pushed
// before Shutdown is never silently dropped — its caller may be waiting
// on it.
func TestShutdownDrainsQueuedTasks(t *testing.T) {
	for _, kind := range []Kind{Compute, Communication} {
		q := NewQueue()
		p := NewPool(kind, q)
		p.SetCommConcurrency(1)
		p.SetCount(1)
		var n atomic.Int64
		for i := 0; i < 4; i++ {
			q.Push(Task{Do: func() {
				time.Sleep(10 * time.Millisecond)
				n.Add(1)
			}})
		}
		p.Shutdown()
		if got := n.Load(); got != 4 {
			t.Fatalf("%v: Shutdown returned after %d of 4 queued tasks ran", kind, got)
		}
		if err := q.Push(Task{Do: func() {}}); !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("%v: Push after Shutdown = %v, want ErrQueueClosed", kind, err)
		}
	}
}

func TestZeroEnginesQueueGrows(t *testing.T) {
	q := NewQueue()
	p := NewPool(Compute, q)
	defer p.Shutdown()
	for i := 0; i < 5; i++ {
		q.Push(Task{Do: func() {}})
	}
	time.Sleep(10 * time.Millisecond)
	if q.Len() != 5 {
		t.Fatalf("queue len = %d with zero engines, want 5", q.Len())
	}
	p.SetCount(1) // drains
	deadline := time.Now().Add(2 * time.Second)
	for q.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q.Len() != 0 {
		t.Fatal("queue did not drain after adding an engine")
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Communication.String() != "communication" {
		t.Fatal("kind names wrong")
	}
}

func TestNilTaskDoIsSafe(t *testing.T) {
	q := NewQueue()
	p := NewPool(Compute, q)
	defer p.Shutdown()
	p.SetCount(1)
	q.Push(Task{}) // nil Do must not panic
	deadline := time.Now().Add(time.Second)
	for p.Completed() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Completed() != 1 {
		t.Fatal("nil task not completed")
	}
}

func waitTimeout(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for tasks")
	}
}
