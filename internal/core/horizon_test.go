package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestMustFinishPanicsAtHorizon: an engine that ran to its horizon
// without being stopped cut its measurement short, and the guard says
// so with the counts.
func TestMustFinishPanicsAtHorizon(t *testing.T) {
	e := sim.NewEngine(1)
	e.After(sim.Millisecond, func() {})
	e.Run(sim.Time(10 * sim.Millisecond))

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mustFinish did not panic on an engine that reached its horizon")
		}
		msg := fmt.Sprint(r)
		want := "core: test run reached its horizon after 2 of 5"
		if !strings.HasPrefix(msg, want) {
			t.Fatalf("panic %q, want prefix %q", msg, want)
		}
	}()
	mustFinish(e, "test run", 2, 5)
}

// TestMustFinishAcceptsStoppedEngine: a measurement that stopped the
// engine before its horizon finished.
func TestMustFinishAcceptsStoppedEngine(t *testing.T) {
	e := sim.NewEngine(1)
	e.After(sim.Millisecond, e.Stop)
	e.After(2*sim.Millisecond, func() { t.Error("event after Stop fired") })
	if now := e.Run(sim.Time(10 * sim.Millisecond)); now != sim.Time(sim.Millisecond) {
		t.Fatalf("stopped engine at %v, want %v", now, sim.Time(sim.Millisecond))
	}
	mustFinish(e, "test run", 5, 5)
}

// TestDeterminismPassEndsAtLastLoop drives one loaded fig1 placement and
// requires the engine to stop at the instant the last timed loop
// completes (its start plus its elapsed time), not at the pass's
// horizon: nothing after that instant is measured.
func TestDeterminismPassEndsAtLastLoop(t *testing.T) {
	cfg := DefaultDeterminism(kernel.StandardLinux24(2, 1.4, true))
	cfg.Seed = sim.DeriveSeed(sim.DeriveSeed(goldenSeed, streamFig1), 0)
	const runs = 3
	p := buildDeterminismPass(cfg, runs, true)
	elapsed := p.run()
	if len(elapsed) != runs {
		t.Fatalf("pass timed %d loops, want %d", len(elapsed), runs)
	}
	end := p.loop.started.Add(elapsed[runs-1])
	if now := p.s.K.Now(); now != end {
		t.Fatalf("engine clock %v after the pass, want the last loop's completion %v (horizon %v)",
			now, end, p.horizon)
	}
	if end >= p.horizon {
		t.Fatalf("last loop completed at %v, not before the horizon %v", end, p.horizon)
	}
}

// TestFig5SlowReplicationFinishes: at scale 0.25 and seed 8 one fig5
// replication needs 8.685 s of virtual time for its 12,500 samples,
// past the old guard of Samples + Samples/4 + 2048 RTC periods
// (8.629 s), which made FigureCSV panic. The guard must leave room for
// every replication that finishes.
func TestFig5SlowReplicationFinishes(t *testing.T) {
	csv, err := FigureCSV("fig5", 0.25, 8, 0)
	if err != nil || csv == "" {
		t.Fatalf("fig5 scale 0.25 seed 8: %d CSV bytes, err %v", len(csv), err)
	}
}
