package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestReferenceAllocsPerEvent pins the kernel model's steady-state
// dispatch cost in allocations: on the shielded reference machine (every
// device and load running), frames, syscall state and periodic event
// bodies are recycled or bound once, per-CPU events are re-armed timers,
// and workload syscall definitions are reused, so the heap sees well
// under one allocation per fired event. The measured value is 0.021
// (about 100 allocations over 4,732 events); the bound is about twice
// that.
func TestReferenceAllocsPerEvent(t *testing.T) {
	sys, err := BuildReference(RefShielded, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := sys.K.Eng
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	f0 := eng.Fired()
	eng.Run(eng.Now().Add(200 * sim.Millisecond))
	runtime.ReadMemStats(&ms1)
	fired := eng.Fired() - f0
	if fired == 0 {
		t.Fatal("no events fired")
	}
	perEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(fired)
	t.Logf("%d events, %.3f allocs/event, %.1f B/event", fired, perEvent, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(fired))
	if perEvent > 0.05 {
		t.Fatalf("%.3f allocs per fired event, want <= 0.05", perEvent)
	}
}
