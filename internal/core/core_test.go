package core

import (
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Scaled-down versions of every figure, asserting the paper-shape
// relations rather than absolute values.

func smallDeterminism(t *testing.T, cfg kernel.Config, shield bool) DeterminismResult {
	t.Helper()
	d := DefaultDeterminism(cfg)
	d.Runs = 12
	d.LoopWork = sim.DurationOf(0.3) // shorter loop, same physics
	d.Shield = shield
	d.Seed = 11
	return RunDeterminism(d)
}

func TestDeterminismOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	fig1 := smallDeterminism(t, kernel.StandardLinux24(2, 1.4, true), false)
	fig2 := smallDeterminism(t, kernel.RedHawk14(2, 1.4), true)
	fig3 := smallDeterminism(t, kernel.RedHawk14(2, 1.4), false)
	fig4 := smallDeterminism(t, kernel.StandardLinux24(2, 1.4, false), false)

	j1, j2, j3, j4 := fig1.Report.JitterPercent(), fig2.Report.JitterPercent(),
		fig3.Report.JitterPercent(), fig4.Report.JitterPercent()
	t.Logf("jitter%%: fig1(HT)=%.2f fig2(shield)=%.2f fig3(redhawk)=%.2f fig4(stock)=%.2f", j1, j2, j3, j4)

	// The paper's headline orderings.
	if !(j2 < j3 && j2 < j4 && j2 < j1) {
		t.Errorf("shielded CPU must have the least jitter: %v %v %v %v", j1, j2, j3, j4)
	}
	if j1 <= j4 {
		t.Errorf("hyperthreading must worsen jitter: HT %.2f%% vs no-HT %.2f%%", j1, j4)
	}
	if j2 > 5 {
		t.Errorf("shielded jitter = %.2f%%, want ~2%% (bus contention only)", j2)
	}
	if j4 < 5 {
		t.Errorf("stock unshielded jitter = %.2f%%, want >5%% under interrupt load", j4)
	}
}

func TestRealfeelOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	stock := DefaultRealfeel(kernel.StandardLinux24(2, 0.933, false))
	stock.Samples = 40_000
	stock.Seed = 5
	fig5 := RunRealfeel(stock)

	shielded := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
	shielded.Samples = 40_000
	shielded.Shield = true
	shielded.Seed = 5
	fig6 := RunRealfeel(shielded)

	t.Logf("fig5 max=%v fig6 max=%v", fig5.Max, fig6.Max)
	if fig5.Max < 5*sim.Millisecond {
		t.Errorf("stock realfeel max = %v, want multi-ms worst case", fig5.Max)
	}
	if fig6.Max >= sim.Millisecond {
		t.Errorf("shielded realfeel max = %v, want sub-millisecond (the title claim)", fig6.Max)
	}
	if fig6.Max*10 > fig5.Max {
		t.Errorf("shielding should improve worst case by ≫10x: %v vs %v", fig5.Max, fig6.Max)
	}
	// The bulk of samples must be fast in both.
	if f := fig5.Hist.FractionBelow(100 * sim.Microsecond); f < 0.9 {
		t.Errorf("fig5 fraction <0.1ms = %.3f, want >0.9", f)
	}
	if f := fig6.Hist.FractionBelow(100 * sim.Microsecond); f < 0.99 {
		t.Errorf("fig6 fraction <0.1ms = %.3f, want >0.99", f)
	}
}

func TestRCIMUnder30Micros(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := DefaultRCIM(kernel.RedHawk14(2, 2.0))
	cfg.Samples = 40_000
	cfg.Seed = 5
	r := RunRCIM(cfg)
	t.Logf("rcim min=%v avg=%v max=%v", r.Min, r.Mean(), r.Max)
	if r.Max >= 30*sim.Microsecond {
		t.Errorf("RCIM max = %v, the paper's guarantee is <30µs", r.Max)
	}
	if r.Min < 2*sim.Microsecond {
		t.Errorf("RCIM min = %v, implausibly fast", r.Min)
	}
	if r.Samples < 39_000 {
		t.Errorf("only %d samples measured", r.Samples)
	}
}

func TestRCIMBKLAblationHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	base := DefaultRCIM(kernel.RedHawk14(2, 2.0))
	base.Samples = 30_000
	base.Seed = 5
	good := RunRCIM(base)

	forced := base
	forced.ForceBKL = true
	bad := RunRCIM(forced)

	t.Logf("noBKL max=%v, BKL max=%v", good.Max, bad.Max)
	if bad.Max <= good.Max {
		t.Errorf("forcing the BKL must worsen the worst case: %v vs %v", bad.Max, good.Max)
	}
	if bad.Max < 100*sim.Microsecond {
		t.Errorf("BKL-forced max = %v, expected ≫100µs jitter from BKL contention", bad.Max)
	}
}

func TestSpinlockBHFixAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	// The collision (a big bottom half landing mid-hold) is a rare
	// event, so sample several seeds and compare the worst case across
	// them, as the paper's 8-hour runs effectively did.
	var fixedWorst, brokenWorst sim.Duration
	for _, seed := range []uint64{1000, 2000, 3000, 4000} {
		cfg := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
		cfg.Samples = 60_000
		cfg.Shield = true
		cfg.Seed = seed
		// Bursty wire traffic makes the bottom halves large enough to
		// expose the §6.2 window within the sample budget.
		cfg.ExtraLoads = []string{LoadScpBurst}
		a := RunRealfeel(cfg)

		broken := cfg
		broken.Kernel.FixSpinlockBH = false
		b := RunRealfeel(broken)
		t.Logf("seed %d: fix on hold=%v max=%v; fix off hold=%v max=%v",
			seed, a.WorstFSHold, a.Max, b.WorstFSHold, b.Max)
		if a.WorstFSHold > fixedWorst {
			fixedWorst = a.WorstFSHold
		}
		if b.WorstFSHold > brokenWorst {
			brokenWorst = b.WorstFSHold
		}
	}
	if brokenWorst < fixedWorst {
		t.Errorf("disabling the §6.2 fix should not shorten worst holds: %v vs %v",
			brokenWorst, fixedWorst)
	}
	if brokenWorst < fixedWorst+fixedWorst/2 {
		t.Errorf("pre-fix holds should stretch well past the cap: %v vs %v",
			brokenWorst, fixedWorst)
	}
}

func TestShieldModesMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
	cfg.Samples = 30_000
	cfg.Seed = 9
	none := RunRealfeelModes(cfg, false, false, false, true)
	procs := RunRealfeelModes(cfg, true, false, false, true)
	full := RunRealfeelModes(cfg, true, true, true, true)
	t.Logf("none=%v procs=%v full=%v", none.Max, procs.Max, full.Max)
	// The residual tail (fs lock contention from other CPUs) is common
	// to all modes, so compare with a small tolerance.
	if full.Max > procs.Max+procs.Max/10 {
		t.Errorf("full shielding must not be worse than procs-only: %v vs %v", full.Max, procs.Max)
	}
	if full.Max > none.Max+none.Max/10 {
		t.Errorf("full shielding must not be worse than no shielding: %v vs %v", full.Max, none.Max)
	}
	if full.Mean() > none.Mean() {
		t.Errorf("full shielding must improve the mean: %v vs %v", full.Mean(), none.Mean())
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 11 {
		t.Fatalf("registry has %d experiments, want ≥11", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := ExperimentByID("fig5"); !ok {
		t.Error("ExperimentByID(fig5) failed")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("ExperimentByID(nope) should fail")
	}
	// The figures table leads the registry, in paper order.
	for i, id := range FigureIDs() {
		if exps[i].ID != id {
			t.Errorf("experiment %d is %s, want figure %s", i, exps[i].ID, id)
		}
	}
}

func TestSystemBuilder(t *testing.T) {
	s := NewSystem(kernel.RedHawk14(2, 1.0), 1, SystemOptions{
		RTCHz:      1024,
		RCIMPeriod: sim.Millisecond,
		WithGPU:    true,
		Loads:      []string{LoadStressKernel, LoadX11Perf, LoadTTCPNet, LoadScpFlood, LoadDiskNoise},
	})
	if s.RTC == nil || s.RCIM == nil || s.GPU == nil || s.NIC == nil || s.Disk == nil {
		t.Fatal("system missing devices")
	}
	s.Start()
	s.K.Eng.Run(sim.Time(100 * sim.Millisecond))
	if s.RTC.Fires() == 0 || s.RCIM.Fires() == 0 {
		t.Fatal("timers not firing")
	}
}

func TestSystemUnknownLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown load should panic")
		}
	}()
	NewSystem(kernel.RedHawk14(1, 1.0), 1, SystemOptions{Loads: []string{"bogus"}})
}

func TestDeterminismRender(t *testing.T) {
	d := DefaultDeterminism(kernel.RedHawk14(2, 1.4))
	d.Runs = 5
	d.LoopWork = sim.DurationOf(0.05)
	d.Shield = true
	r := RunDeterminism(d)
	out := r.Render()
	for _, want := range []string{"ideal:", "max:", "jitter:", "shielded"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestResponseLegendFormat(t *testing.T) {
	cfg := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
	cfg.Samples = 3000
	cfg.Shield = true
	r := RunRealfeel(cfg)
	legend := r.Legend(PaperThresholdsFig6())
	for _, want := range []string{"measured interrupts", "max latency", "samples <"} {
		if !strings.Contains(legend, want) {
			t.Errorf("legend missing %q:\n%s", want, legend)
		}
	}
}

func TestRunDeterminismReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	run := func() DeterminismResult {
		d := DefaultDeterminism(kernel.RedHawk14(2, 1.4))
		d.Runs = 6
		d.LoopWork = sim.DurationOf(0.1)
		d.Seed = 31
		return RunDeterminism(d)
	}
	a, b := run(), run()
	if a.Report.Ideal != b.Report.Ideal || a.Report.Max != b.Report.Max {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v",
			a.Report.Ideal, a.Report.Max, b.Report.Ideal, b.Report.Max)
	}
}

func TestRunRealfeelReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	run := func() ResponseResult {
		cfg := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
		cfg.Samples = 10_000
		cfg.Shield = true
		cfg.Seed = 31
		return RunRealfeel(cfg)
	}
	a, b := run(), run()
	if a.Max != b.Max || a.Mean() != b.Mean() || a.Samples != b.Samples {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.Max, a.Mean(), b.Max, b.Mean())
	}
}
