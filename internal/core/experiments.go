package core

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Experiment is one reproducible paper figure or ablation.
type Experiment struct {
	ID    string
	Title string
	// Paper summarises the published result for side-by-side output.
	Paper string
	// Run executes the experiment at the given scale factor (1.0 =
	// default sample counts; the paper's full size is much larger) on up
	// to workers goroutines (<= 0 means GOMAXPROCS) and returns a
	// rendered report. The worker count never affects the report's
	// bytes, only wall-clock time — the determinism-regression tests
	// hold every experiment to that.
	Run func(scale float64, seed uint64, workers int) string
}

// scaleSamples applies the scale factor with a sane floor.
func scaleSamples(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

func scaleRuns(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 5 {
		n = 5
	}
	return n
}

// Experiments returns the registry of all reproducible results, in paper
// order: the figures table's entries, then the ablations and extensions.
func Experiments() []Experiment {
	var exps []Experiment
	for _, f := range figures {
		exps = append(exps, Experiment{ID: f.id, Title: f.title, Paper: f.paper,
			Run: func(scale float64, seed uint64, workers int) string {
				_, report, _ := f.resolve(f.id, scale, seed, workers).run(0)
				return report
			}})
	}
	return append(exps, []Experiment{
		{
			ID:    "ablate-spinlock-bh",
			Title: "Ablation §6.2: bottom halves preempting spinlock holders (fix off)",
			Paper: "pre-fix RedHawk showed multi-millisecond delays via contended spinlocks",
			Run: func(scale float64, seed uint64, workers int) string {
				base := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
				base.Samples = scaleSamples(base.Samples, scale)
				base.Shield = true
				base.Seed = sim.DeriveSeed(seed, streamSpinlockBH)
				// Wire-interrupt traffic with rx-ring batching makes the
				// bottom halves big enough to expose the §6.2 window.
				base.ExtraLoads = []string{LoadScpBurst}

				nofix := base
				nofix.Kernel.FixSpinlockBH = false
				nofix.Kernel.Name += "-nofix"

				var fixed, broken ResponseResult
				runner.Do(workers,
					func() { fixed = RunRealfeel(base) },
					func() { broken = RunRealfeel(nofix) },
				)
				return fmt.Sprintf(
					"fix ON  (RedHawk ships this): worst fs-lock hold %v, realfeel max %v\n"+
						"fix OFF (pre-§6.2 kernel):    worst fs-lock hold %v, realfeel max %v\n"+
						"bottom halves preempting spinlock holders stretch critical sections\n"+
						"from the %v cap toward the softirq burst length.\n",
					fixed.WorstFSHold, fixed.Max, broken.WorstFSHold, broken.Max,
					base.Kernel.CritSectionCap)
			},
		},
		{
			ID:    "future-rtc-api",
			Title: "Extension (§7): /dev/rtc reached through a multithreaded driver API",
			Paper: "\"remaining multithreading issues to be solved ... for other standard Linux APIs\"",
			Run: func(scale float64, seed uint64, workers int) string {
				legacy := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
				legacy.Samples = scaleSamples(legacy.Samples, scale)
				legacy.Shield = true
				legacy.Seed = sim.DeriveSeed(seed, streamFutureRTC)

				fixedCfg := legacy
				fixedCfg.FixedAPI = true

				var a, b ResponseResult
				runner.Do(workers,
					func() { a = RunRealfeel(legacy) },
					func() { b = RunRealfeel(fixedCfg) },
				)
				return fmt.Sprintf(
					"read(/dev/rtc) via generic fs layers: min %v avg %v max %v\n"+
						"ioctl wait, multithreaded driver:     min %v avg %v max %v\n"+
						"fixing the driver API removes the residual fs-spinlock tail and\n"+
						"brings the RTC to the RCIM-class guarantee on a shielded CPU.\n",
					a.Min, a.Mean(), a.Max, b.Min, b.Mean(), b.Max)
			},
		},
		{
			ID:    "ablate-bkl-ioctl",
			Title: "Ablation §6.3: RCIM ioctl forced through the BKL",
			Paper: "BKL contention can add several milliseconds of jitter",
			Run: func(scale float64, seed uint64, workers int) string {
				cfg := DefaultRCIM(kernel.RedHawk14(2, 2.0))
				cfg.ForceBKL = true
				cfg.Samples = scaleSamples(cfg.Samples, scale)
				cfg.Seed = sim.DeriveSeed(seed, streamBKL)
				cfg.Replications = figureReplications
				cfg.Workers = workers
				r := RunRCIM(cfg)
				return r.Name + "\n" + r.Legend(PaperThresholdsFig7())
			},
		},
		{
			ID:    "ablate-shield-modes",
			Title: "Ablation §3: shield sub-modes (procs / +irqs / +ltmr)",
			Paper: "each shielding dimension removes one jitter source",
			Run: func(scale float64, seed uint64, workers int) string {
				return runShieldModes(scale, seed, workers)
			},
		},
		{
			ID:    "ablate-patches-noshield",
			Title: "Ablation §6: preemption+low-latency patches, no shielding (Clark Williams)",
			Paper: "~1.2ms worst-case interrupt response [5]",
			Run: func(scale float64, seed uint64, workers int) string {
				cfg := DefaultRealfeel(kernel.PatchedLinux24(2, 0.933))
				cfg.Samples = scaleSamples(cfg.Samples, scale)
				cfg.Seed = sim.DeriveSeed(seed, streamPatches)
				cfg.Replications = figureReplications
				cfg.Workers = workers
				r := RunRealfeel(cfg)
				return r.Name + "\n" + r.Legend(PaperThresholdsFig5())
			},
		},
		{
			ID:    "ablate-posix-timers",
			Title: "Ablation §4: the POSIX timers patch (sleep granularity)",
			Paper: "RedHawk includes the POSIX timers patch [4]; stock 2.4 timers have 10ms jiffy granularity",
			Run: func(scale float64, seed uint64, workers int) string {
				return runPosixTimers(seed)
			},
		},
		{
			ID:    "ablate-hyperthreading",
			Title: "Ablation §5: hyperthreading as a jitter source (fig1 vs fig4 delta)",
			Paper: "26.17% with HT vs 13.15% without",
			Run: func(scale float64, seed uint64, workers int) string {
				ht := DefaultDeterminism(kernel.StandardLinux24(2, 1.4, true))
				ht.Runs = scaleRuns(ht.Runs, scale)
				ht.Seed = sim.DeriveSeed(seed, streamHT)
				ht.Workers = workers
				noht := DefaultDeterminism(kernel.StandardLinux24(2, 1.4, false))
				noht.Runs = scaleRuns(noht.Runs, scale)
				noht.Seed = sim.DeriveSeed(seed, streamHT)
				noht.Workers = workers
				a, b := RunDeterminism(ht), RunDeterminism(noht)
				return fmt.Sprintf("with HT:\n%s\nwithout HT:\n%s", a.Legend(), b.Legend())
			},
		},
	}...)
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runShieldModes sweeps the shield sub-masks on the fig6 setup and
// reports max latency per mode. The RTC follows the measurement task in
// every mode. The four modes are independent single-replication runs,
// so they fan out across the worker pool and render in mode order.
func runShieldModes(scale float64, seed uint64, workers int) string {
	type mode struct {
		name                string
		procs, irqs, ltimer bool
	}
	modes := []mode{
		{"no shielding", false, false, false},
		{"procs only", true, false, false},
		{"procs+irqs", true, true, false},
		{"procs+irqs+ltmr (full)", true, true, true},
	}
	results := runner.Map(workers, len(modes), func(i int) ResponseResult {
		m := modes[i]
		cfg := DefaultRealfeel(kernel.RedHawk14(2, 0.933))
		cfg.Samples = scaleSamples(cfg.Samples/4, scale)
		cfg.Seed = sim.DeriveSeed(seed, streamShieldModes)
		return RunRealfeelModes(cfg, m.procs, m.irqs, m.ltimer, true)
	})
	var b strings.Builder
	for i, m := range modes {
		r := results[i]
		fmt.Fprintf(&b, "%-24s max %-10v mean %-10v >0.1ms: %d/%d\n",
			m.name, r.Max, r.Mean(), r.Samples-r.Hist.CumulativeBelow(100*sim.Microsecond), r.Samples)
	}
	return b.String()
}

// runPosixTimers compares a 1 kHz sleep-paced periodic task across
// kernels: jiffy-granular stock timers cannot do better than ~50 Hz.
func runPosixTimers(seed uint64) string {
	measure := func(cfg kernel.Config) (int, sim.Duration) {
		k := kernel.New(cfg, sim.DeriveSeed(seed, streamPosixTimers))
		cycles := 0
		var worstPeriod sim.Duration
		last := sim.NoTime
		k.NewTask("periodic", kernel.SchedFIFO, 90, 0, kernel.BehaviorFunc(func(*kernel.Task) kernel.Action {
			a := kernel.Sleep(sim.Millisecond)
			a.OnComplete = func(now sim.Time) {
				cycles++
				if last >= 0 {
					if p := now.Sub(last); p > worstPeriod {
						worstPeriod = p
					}
				}
				last = now
			}
			return a
		}))
		k.Start()
		k.Eng.Run(sim.Time(2 * sim.Second))
		return cycles / 2, worstPeriod
	}
	stockHz, stockWorst := measure(kernel.StandardLinux24(1, 0.933, false))
	rhHz, rhWorst := measure(kernel.RedHawk14(1, 0.933))
	return fmt.Sprintf(
		"1 kHz sleep-paced loop:\n"+
			"  stock 2.4.18:  achieved %4d Hz, worst period %v (jiffy-granular timers)\n"+
			"  RedHawk 1.4:   achieved %4d Hz, worst period %v (POSIX timers patch)\n",
		stockHz, stockWorst, rhHz, rhWorst)
}
