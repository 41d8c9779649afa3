package core

import (
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// raceEnabled is set when the tests run under -race (race_test.go).
var raceEnabled bool

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

// TestContinuationAllocsPerRun pins the allocation count of the simd
// serving path for a reference continuation at seed 7: resolving a
// request to its scenario and both cache keys, and one warm-started
// window (machine build, image restore, the default 20 ms run and the
// result snapshot). Measured for stock / shielded: 15 / 15 allocations
// per resolve with keys and 339 / 392 per warm window (383 / 442 when
// restore copied every task, lock, wait-queue, scheduler and event-kind
// name out of the image only to compare or look it up; 87 / 89 and
// 509 / 602 when the config text was rendered and the keys hashed per
// call, and every snapshot section and procfs path walk allocated);
// each bound is about 1.1x the measured count.
func TestContinuationAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, ref := range []struct {
		fig             string
		keys, warmBound float64
	}{
		{ScenarioRefStock, 17, 375},
		{ScenarioRefShielded, 17, 430},
	} {
		keys := testing.AllocsPerRun(20, func() {
			s, err := ResolveScenario(ref.fig, 0, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Key()
			if _, err := s.ImageKey(); err != nil {
				t.Fatal(err)
			}
		})
		s, err := ResolveScenario(ref.fig, 0, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, img, err := RunContinuationCold(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm := testing.AllocsPerRun(3, func() {
			if _, err := RunContinuationWarm(s, img, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per resolve with keys, %.0f per warm window", ref.fig, keys, warm)
		if keys > ref.keys {
			t.Errorf("%s: %.0f allocations per resolve with keys, want <= %.0f", ref.fig, keys, ref.keys)
		}
		if warm > ref.warmBound {
			t.Errorf("%s: %.0f allocations per warm window, want <= %.0f", ref.fig, warm, ref.warmBound)
		}
	}
}

// TestFigureResolveAllocsPerRun pins the allocation count of resolving
// a figure request to its scenario and key at seed 7, scale 0.25: 21
// for fig5 and 35 for attrib-causes, against 44 and 85 when every
// request rendered the figure's whole resolved config, kernel.Config
// included, by %+v reflection. Each bound is about 1.1x the measured
// count.
func TestFigureResolveAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, fig := range []struct {
		id    string
		bound float64
	}{
		{"fig5", 24},
		{"attrib-causes", 39},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			s, err := ResolveScenario(fig.id, 0.25, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Key()
		})
		t.Logf("%s: %.0f allocs per resolve with key", fig.id, allocs)
		if allocs > fig.bound {
			t.Errorf("%s: %.0f allocations per resolve with key, want <= %.0f", fig.id, allocs, fig.bound)
		}
	}
}
