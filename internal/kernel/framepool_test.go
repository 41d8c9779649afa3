package kernel

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// expectPanic runs f and fails unless it panics with a message
// containing want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

func TestFramePoolRecycles(t *testing.T) {
	k := New(testConfig(1), 1)
	f := k.getFrame()
	f.kind, f.workLeft = frameTask, 5
	f.locks = append(f.locks, k.BKL)
	k.putFrame(f)
	g := k.getFrame()
	if g != f {
		t.Fatal("getFrame did not reuse the freed frame")
	}
	if g.pooled || g.kind != 0 || g.workLeft != 0 || len(g.locks) != 0 {
		t.Fatalf("recycled frame not reset: %+v", *g)
	}
	if cap(g.locks) == 0 {
		t.Fatal("recycled frame lost its locks capacity")
	}
}

func TestFramePoolDoubleFreePanics(t *testing.T) {
	k := New(testConfig(1), 1)
	f := k.getFrame()
	k.putFrame(f)
	expectPanic(t, "double free", func() { k.putFrame(f) })
}

func TestFramePoolLiveFrameOnFreeListPanics(t *testing.T) {
	k := New(testConfig(1), 1)
	live := k.getFrame()
	live.kind = frameISR
	// A frame on the free list that is not marked pooled was handed
	// back to the list without putFrame (or mutated after it).
	k.frames = append(k.frames, live)
	expectPanic(t, "live isr frame", func() { k.getFrame() })
}

func TestWaitQueuePopFirstReusesCapacity(t *testing.T) {
	wq := NewWaitQueue("q")
	a, b := &Task{PID: 1}, &Task{PID: 2}
	wq.enqueue(a)
	wq.enqueue(b)
	if got := wq.popFirst(); got != a {
		t.Fatalf("popFirst = %v, want %v", got, a)
	}
	if tail := wq.waiters[:cap(wq.waiters)]; tail[len(wq.waiters)] != nil {
		t.Fatal("vacated slot still references a task")
	}
	wq.popFirst()
	allocs := testing.AllocsPerRun(100, func() {
		wq.enqueue(a)
		wq.popFirst()
	})
	if allocs != 0 {
		t.Fatalf("enqueue/popFirst cycle allocates %v times, want 0", allocs)
	}
}

// TestParkedFrameSurvivesMigration preempts a task inside a kernel
// segment, keeps its CPU busy recycling frames while the preempted
// frame is parked, migrates the task, and checks the same frame resumes
// and completes on the other CPU with exact work accounting — so a
// parked frame never reaches the free list early.
func TestParkedFrameSurvivesMigration(t *testing.T) {
	cfg := testConfig(2)
	cfg.Timing.BusContention = 0
	k := New(cfg, 7)
	const work = 10 * sim.Millisecond
	doneCPU := -1
	var low *Task
	seg := Segment{Kind: SegWork, D: work, OnDone: func() { doneCPU = low.CPU() }}
	low = k.NewTask("low", SchedOther, 0, MaskOf(0), &onceBehavior{actions: []Action{
		Syscall(&SyscallCall{Name: "long", Segments: []Segment{seg}}),
	}})
	// churn preempts low on CPU 0 at 2 ms and then finishes many small
	// compute frames there; hog keeps CPU 1 busy until 6 ms, so low's
	// frame stays parked from 2 ms until then.
	churnActs := []Action{Sleep(2 * sim.Millisecond)}
	for i := 0; i < 400; i++ {
		churnActs = append(churnActs, Compute(10*sim.Microsecond))
	}
	k.NewTask("churn", SchedFIFO, 50, MaskOf(0), &onceBehavior{actions: churnActs})
	k.NewTask("hog", SchedFIFO, 50, MaskOf(1), &onceBehavior{actions: []Action{Compute(6 * sim.Millisecond)}})

	var parked *frame
	var parkedWork float64
	k.Eng.Schedule(sim.Time(3*sim.Millisecond), func() {
		parked = low.saved
		if parked == nil || parked.seg == nil {
			t.Errorf("at 3ms low has no parked segment frame (saved=%v)", parked)
			return
		}
		parkedWork = parked.workLeft
		if err := k.SetTaskAffinity(low, MaskOf(1)); err != nil {
			t.Error(err)
		}
	})
	k.Eng.Schedule(sim.Time(5*sim.Millisecond), func() {
		if low.saved != parked || parked.pooled || parked.workLeft != parkedWork {
			t.Errorf("parked frame disturbed while off-CPU: saved=%p parked=%p pooled=%v work %v -> %v",
				low.saved, parked, parked.pooled, parkedWork, parked.workLeft)
		}
		for _, f := range k.frames {
			if f == parked {
				t.Error("parked frame is on the free list")
			}
		}
	})
	k.Start()
	k.Eng.Run(sim.Time(40 * sim.Millisecond))

	if t.Failed() {
		return
	}
	if doneCPU != 1 {
		t.Fatalf("segment completed on cpu %d, want 1", doneCPU)
	}
	if low.Migrated == 0 || k.CPU(0).Preemptions == 0 {
		t.Fatalf("no preemption/migration: migrated=%d cpu0 preemptions=%d", low.Migrated, k.CPU(0).Preemptions)
	}
	if low.RunTime != work {
		t.Fatalf("low ran %v, want exactly its %v of kernel work", low.RunTime, work)
	}
	if low.State() != TaskExited {
		t.Fatalf("low is %v, want exited", low.State())
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
