package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collect drains n tasks via TryPop and runs them.
func collect(t *testing.T, q *Queue, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		task, ok := q.TryPop()
		if !ok {
			t.Fatalf("queue drained after %d of %d tasks", i, n)
		}
		if task.Do != nil {
			task.Do()
		}
	}
}

// TestQueueOrdering is the table-driven contract test for the sharded
// queue: push/pop/steal/close orderings a consumer can observe.
func TestQueueOrdering(t *testing.T) {
	mark := func(got *[]int, i int) Task {
		return Task{Do: func() { *got = append(*got, i) }}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, q *Queue, got *[]int)
		want []int
	}{
		{
			name: "fifo through global ring",
			run: func(t *testing.T, q *Queue, got *[]int) {
				for i := 0; i < 8; i++ {
					if err := q.Push(mark(got, i)); err != nil {
						t.Fatal(err)
					}
				}
				collect(t, q, 8)
			},
			want: []int{0, 1, 2, 3, 4, 5, 6, 7},
		},
		{
			name: "fifo across overflow spill",
			run: func(t *testing.T, q *Queue, got *[]int) {
				// Fill well past the global ring so later pushes spill.
				n := globalRingSize + 64
				for i := 0; i < n; i++ {
					if err := q.Push(mark(got, i)); err != nil {
						t.Fatal(err)
					}
				}
				if q.Len() != n {
					t.Fatalf("Len = %d, want %d", q.Len(), n)
				}
				collect(t, q, n)
				// Spilled tasks may be interleaved relative to ring tasks,
				// but none may be lost or duplicated.
				seen := map[int]bool{}
				for _, v := range *got {
					if seen[v] {
						t.Fatalf("task %d ran twice", v)
					}
					seen[v] = true
				}
				if len(seen) != n {
					t.Fatalf("ran %d unique tasks, want %d", len(seen), n)
				}
				*got = nil // order across the spill boundary is relaxed
			},
			want: nil,
		},
		{
			name: "worker pops its local shard before stealing",
			run: func(t *testing.T, q *Queue, got *[]int) {
				s := q.addWorker()
				defer q.releaseWorker(s)
				for i := 0; i < 4; i++ {
					if err := q.Push(mark(got, i)); err != nil {
						t.Fatal(err)
					}
				}
				var stop atomic.Bool
				for i := 0; i < 4; i++ {
					task, ok := q.popWorker(s, &stop)
					if !ok {
						t.Fatal("popWorker drained early")
					}
					task.Do()
				}
			},
			want: []int{0, 1, 2, 3},
		},
		{
			name: "idle worker steals from a loaded shard",
			run: func(t *testing.T, q *Queue, got *[]int) {
				loaded := q.addWorker()
				thief := q.addWorker()
				defer q.releaseWorker(loaded)
				defer q.releaseWorker(thief)
				// Stash tasks directly in the loaded worker's shard.
				for i := 0; i < 3; i++ {
					if !loaded.local.enqueue(mark(got, i)) {
						t.Fatal("shard enqueue failed")
					}
				}
				var stop atomic.Bool
				for i := 0; i < 3; i++ {
					task, ok := q.popWorker(thief, &stop)
					if !ok {
						t.Fatal("thief found nothing to steal")
					}
					task.Do()
				}
			},
			want: []int{0, 1, 2},
		},
		{
			name: "close drains queued tasks before reporting empty",
			run: func(t *testing.T, q *Queue, got *[]int) {
				for i := 0; i < 3; i++ {
					if err := q.Push(mark(got, i)); err != nil {
						t.Fatal(err)
					}
				}
				q.Close()
				for i := 0; i < 3; i++ {
					task, ok := q.Pop(nil)
					if !ok {
						t.Fatal("Pop refused queued task after Close")
					}
					task.Do()
				}
				if _, ok := q.Pop(nil); ok {
					t.Fatal("Pop returned a task from a drained closed queue")
				}
			},
			want: []int{0, 1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue()
			var got []int
			tc.run(t, q, &got)
			if len(got) != len(tc.want) {
				t.Fatalf("ran %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("order = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestReleaseWorkerRequeuesShardTasks(t *testing.T) {
	q := NewQueue()
	s := q.addWorker()
	for i := 0; i < 10; i++ {
		if !s.local.enqueue(Task{Do: func() {}}) {
			t.Fatal("shard enqueue failed")
		}
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	q.releaseWorker(s)
	if q.Len() != 10 {
		t.Fatalf("Len after release = %d, want 10 (tasks must re-circulate)", q.Len())
	}
	for i := 0; i < 10; i++ {
		if _, ok := q.TryPop(); !ok {
			t.Fatalf("lost task %d on worker release", i)
		}
	}
}

func TestQueueCountersExact(t *testing.T) {
	q := NewQueue()
	const n = globalRingSize + 200 // force overflow involvement
	for i := 0; i < n; i++ {
		q.Push(Task{Do: func() {}})
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n/2; i++ {
		if _, ok := q.TryPop(); !ok {
			t.Fatalf("TryPop %d of %d came up empty", i, n/2)
		}
	}
	if q.Len() != n-n/2 {
		t.Fatalf("Len = %d, want %d", q.Len(), n-n/2)
	}
}

// TestQueueStressWithResizes hammers the queue with many producers while
// pool sizes are reassigned concurrently — the SetCount churn the
// control loop (internal/ctlplane) performs in production. Run under
// -race.
func TestQueueStressWithResizes(t *testing.T) {
	q := NewQueue()
	p := NewPool(Compute, q)
	defer p.Shutdown()
	p.SetCount(4)

	const producers = 8
	const perProducer = 500
	var ran atomic.Int64
	var wg sync.WaitGroup
	var taskWg sync.WaitGroup

	taskWg.Add(producers * perProducer)
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				err := q.Push(Task{Do: func() {
					ran.Add(1)
					taskWg.Done()
				}})
				if err != nil {
					t.Error(err)
					taskWg.Done()
				}
			}
		}()
	}

	// Concurrent resize churn: bounce the engine count hard.
	stopResize := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{1, 8, 2, 6, 3, 4}
		for i := 0; ; i++ {
			select {
			case <-stopResize:
				return
			default:
			}
			p.SetCount(sizes[i%len(sizes)])
			time.Sleep(time.Millisecond)
		}
	}()

	done := make(chan struct{})
	go func() { taskWg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stress timed out: ran %d of %d tasks (len=%d)",
			ran.Load(), producers*perProducer, q.Len())
	}
	close(stopResize)
	wg.Wait()
	if ran.Load() != producers*perProducer {
		t.Fatalf("ran %d, want %d", ran.Load(), producers*perProducer)
	}
	if got := q.Len(); got != 0 {
		t.Fatalf("Len = %d after drain, want 0", got)
	}
}

// TestQueueManyConsumersNoLoss runs blocking consumers directly against
// the queue (no pool) to exercise the parking lot under contention.
func TestQueueManyConsumersNoLoss(t *testing.T) {
	q := NewQueue()
	const consumers = 6
	const tasks = 3000
	var ran atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task, ok := q.Pop(&stop)
				if !ok {
					return
				}
				task.Do()
			}
		}()
	}
	var taskWg sync.WaitGroup
	taskWg.Add(tasks)
	for i := 0; i < tasks; i++ {
		q.Push(Task{Do: func() { ran.Add(1); taskWg.Done() }})
	}
	done := make(chan struct{})
	go func() { taskWg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumers stalled: ran %d of %d", ran.Load(), tasks)
	}
	stop.Store(true)
	q.wakeAll()
	wg.Wait()
	if ran.Load() != tasks {
		t.Fatalf("ran %d, want %d", ran.Load(), tasks)
	}
}

// TestRefillWakesParkedPeer pins the wakeup a refill owes its parked
// peers. Engine a pops, and its refill moves a batch from the global
// ring (or the overflow list) into its own shard, while engine b is
// parked: b's park-time re-scan ran before the batch reached a's shard,
// so only a wakeup lets b steal the second task. Without it the task
// waits behind a's first task until the next Push.
func TestRefillWakesParkedPeer(t *testing.T) {
	for _, tc := range []struct {
		name string
		put  func(q *Queue, task Task)
	}{
		{"global", (*Queue).requeue},
		{"overflow", (*Queue).spill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue()
			defer q.Close()
			a, b := q.addWorker(), q.addWorker()
			got := make(chan int, 2)
			go func() {
				if task, ok := q.popWorker(b, nil); ok {
					task.Do()
				}
			}()
			for q.sleepers.Load() != 1 {
				time.Sleep(time.Millisecond)
			}
			// b holds parkMu from its sleepers increment until it is
			// in Wait.
			q.parkMu.Lock()
			q.parkMu.Unlock()
			for i := 1; i <= 2; i++ {
				i := i
				tc.put(q, Task{Do: func() { got <- i }})
			}
			first, ok := q.popWorker(a, nil)
			if !ok {
				t.Fatal("engine a found no task")
			}
			select {
			case n := <-got:
				if n != 2 {
					t.Fatalf("parked peer ran task %d, want 2", n)
				}
			case <-time.After(time.Second):
				t.Fatal("parked peer slept while a refill left a task in a busy engine's shard")
			}
			first.Do()
			if n := <-got; n != 1 {
				t.Fatalf("engine a popped task %d, want 1", n)
			}
		})
	}
}

// TestParkedRescanRefills: a worker whose park-time re-scan (run under
// parkMu) refills a batch returns its task and wakes its parked peer,
// without taking parkMu a second time.
func TestParkedRescanRefills(t *testing.T) {
	q := NewQueue() // no deferred Close: a deadlocked worker would hang it
	a, b := q.addWorker(), q.addWorker()
	done := make(chan bool, 2)
	pop := func(s *shard) {
		task, ok := q.popWorker(s, nil)
		if ok {
			task.Do()
		}
		done <- ok
	}
	go pop(b)
	for q.sleepers.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	// Holding parkMu waits until b is in Wait, then stalls a between
	// its lock-free scan, which finds nothing, and its re-scan.
	q.parkMu.Lock()
	go pop(a)
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 2; i++ {
		q.requeue(Task{Do: func() {}})
	}
	q.parkMu.Unlock()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("popWorker returned no task")
			}
		case <-time.After(time.Second):
			t.Fatal("a worker hung: the re-scan's refill deadlocked or left its peer asleep")
		}
	}
}
