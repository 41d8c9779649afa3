package sim

import "testing"

// fuzzTimers is how many Timers FuzzEngineOps arms and disarms.
const fuzzTimers = 3

// FuzzEngineOps drives the engine with an arbitrary op sequence
// (schedule / arm / re-arm / disarm / step) and checks the core
// invariants: no panic, time never regresses, and every scheduled event
// and every timer arm not later disarmed or re-armed fires exactly
// once.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 9})
	f.Add([]byte{255, 0, 255, 1})
	// Timer ops: arm, re-arm, disarm and fire the three timers amid
	// schedules and steps.
	f.Add([]byte{1, 5, 9, 2, 6, 10, 0, 3, 13, 17, 4, 21, 8, 63, 1, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine(1)
		fired := 0
		expected := 0
		var timers [fuzzTimers]Timer
		for i := range timers {
			timers[i].Init(EventTag{}, i == 0, func() { fired++ })
		}
		for _, op := range ops {
			tm := &timers[int(op>>2)%fuzzTimers]
			switch op % 4 {
			case 0: // schedule
				d := Duration(op) * Microsecond
				expected++
				e.After(d, func() { fired++ })
			case 1: // arm or re-arm a timer: a re-arm replaces the pending fire
				if !tm.Armed() {
					expected++
				}
				e.ArmTimer(tm, e.Now().Add(Duration(op)*Microsecond))
			case 2: // disarm a timer
				if tm.Armed() {
					expected--
				}
				e.DisarmTimer(tm)
			case 3: // step a few events
				last := e.Now()
				for j := 0; j < int(op%5); j++ {
					if !e.Step() {
						break
					}
					if e.Now() < last {
						t.Fatal("time went backwards")
					}
					last = e.Now()
				}
			}
		}
		e.RunAll()
		if fired != expected {
			t.Fatalf("fired %d, expected %d", fired, expected)
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events pending after RunAll", e.Pending())
		}
	})
}
