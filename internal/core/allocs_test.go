package core

import (
	"runtime"
	"testing"

	"repro/internal/kernel"
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

// TestFigureAllocsPerRun pins the allocation count of one fig5–7
// interrupt-response run at a fixed seed — the BenchmarkFig5/6/7 bodies,
// machine build included. The stress and X11 workloads reuse their
// syscall definitions (ttcp receive, FIFO read and write, the X server's
// BKL ioctl), so what is left is mostly setup, the disk backlog and the
// kernel timer wheel. Measured: 11,653, 5,553 and 3,122 allocations
// (17,738, 6,039 and 9,637 when those four definitions were allocated
// per call); each bound is about 1.1x the measured count.
func TestFigureAllocsPerRun(t *testing.T) {
	for _, fig := range []struct {
		name  string
		bound uint64
		run   func()
	}{
		{"fig5", 12_800, func() {
			rf := DefaultRealfeel(kernel.StandardLinux24(2, 0.933, false))
			rf.Samples, rf.Seed, rf.Workers = 60_000, 1, 1
			RunRealfeel(rf)
		}},
		{"fig6", 6_100, func() {
			rf := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
			rf.Samples, rf.Shield, rf.Seed, rf.Workers = 60_000, true, 1, 1
			RunRealfeel(rf)
		}},
		{"fig7", 3_450, func() {
			rc := DefaultRCIM(kernel.RedHawk14(2, 2.0))
			rc.Samples, rc.Seed, rc.Workers = 40_000, 1, 1
			RunRCIM(rc)
		}},
	} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		fig.run()
		runtime.ReadMemStats(&ms1)
		allocs := ms1.Mallocs - ms0.Mallocs
		t.Logf("%s: %d allocs, %d B", fig.name, allocs, ms1.TotalAlloc-ms0.TotalAlloc)
		if allocs > fig.bound {
			t.Errorf("%s: %d allocations in one run, want <= %d", fig.name, allocs, fig.bound)
		}
	}
}
