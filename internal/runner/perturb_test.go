package runner

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// racyScenario is the deliberately injected tie-break race the harness
// must catch: several events scheduled (unpinned) for the same instant
// whose callbacks append to a shared log, so the result depends on the
// dispatch order of simultaneous events.
func racyScenario(salt uint64) string {
	e := sim.NewEngine(3)
	e.PerturbTiebreaks(salt)
	out := ""
	for i := 0; i < 8; i++ {
		i := i
		e.Schedule(sim.Time(sim.Millisecond), func() { out += fmt.Sprint(i) })
	}
	e.RunAll()
	return out
}

// pinnedScenario is the same collision with the arbitration declared:
// pinned timers keep FIFO order under every salt, so the "race" is part
// of the model and the harness must stay quiet.
func pinnedScenario(salt uint64) string {
	e := sim.NewEngine(3)
	e.PerturbTiebreaks(salt)
	out := ""
	var timers [8]sim.Timer
	for i := range timers {
		i := i
		timers[i].Init(sim.EventTag{}, true, func() { out += fmt.Sprint(i) })
		e.ArmTimer(&timers[i], sim.Time(sim.Millisecond))
	}
	e.RunAll()
	return out
}

func TestPerturbCatchesInjectedTiebreakRace(t *testing.T) {
	rep := Perturb(2, 1, 4, racyScenario)
	if rep.Baseline != "01234567" {
		t.Fatalf("baseline = %q, want FIFO order", rep.Baseline)
	}
	d := rep.Diverged()
	if len(d) == 0 {
		t.Fatal("harness missed the injected tie-break race")
	}
	if rep.OK() {
		t.Fatal("OK() = true for a diverged report")
	}
	for _, run := range d {
		if run.Salt == 0 {
			t.Fatal("a perturbed run carried salt 0")
		}
	}
}

func TestPerturbAcceptsPinnedArbitration(t *testing.T) {
	rep := Perturb(2, 1, 4, pinnedScenario)
	if !rep.OK() {
		t.Fatalf("pinned scenario flagged as racy: %s", rep)
	}
	if rep.Baseline != "01234567" {
		t.Fatalf("baseline = %q, want FIFO order", rep.Baseline)
	}
}

func TestPerturbDeterministicAcrossWorkers(t *testing.T) {
	// The report itself obeys the determinism contract: worker count
	// must not change it.
	a := Perturb(1, 42, 6, racyScenario)
	b := Perturb(8, 42, 6, racyScenario)
	if a.Baseline != b.Baseline || len(a.Runs) != len(b.Runs) {
		t.Fatalf("reports differ across worker counts: %+v vs %+v", a, b)
	}
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			t.Fatalf("run %d differs across worker counts: %+v vs %+v", i, a.Runs[i], b.Runs[i])
		}
	}
}

func TestPerturbStringVerdicts(t *testing.T) {
	clean := Perturb(1, 1, 2, pinnedScenario)
	racy := Perturb(1, 1, 4, racyScenario)
	if s := clean.String(); s == "" || clean.OK() != true {
		t.Fatalf("clean verdict: %q", s)
	}
	if s := racy.String(); racy.OK() || len(s) == 0 {
		t.Fatalf("racy verdict: %q", s)
	}
}
