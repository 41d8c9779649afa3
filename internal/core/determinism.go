package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
)

// DeterminismConfig parameterises the §5.1 execution determinism test:
// a CPU-bound double-precision sine loop, mlocked and SCHED_FIFO, timed
// with the TSC, while scp traffic and the disknoise script load the
// system.
type DeterminismConfig struct {
	Kernel kernel.Config
	// LoopWork is the pure computation per timed loop (the paper's loop
	// ideals at ~1.15 s).
	LoopWork sim.Duration
	// Runs is the number of timed loop executions under load.
	Runs int
	// Shield runs the loop on a fully shielded CPU (Figure 2).
	Shield bool
	// ShieldCPU is the CPU to shield (default: last CPU).
	ShieldCPU int
	Seed      uint64
	// Workers caps the worker pool the placement replications run on;
	// <= 0 means GOMAXPROCS. Workers never affects results, only
	// wall-clock time: placements are merged in replication-index order,
	// so the result is bit-identical for any worker count.
	Workers int
}

// DefaultDeterminism fills the paper's parameters for a given kernel.
func DefaultDeterminism(cfg kernel.Config) DeterminismConfig {
	return DeterminismConfig{
		Kernel:    cfg,
		LoopWork:  sim.DurationOf(1.15),
		Runs:      60,
		ShieldCPU: cfg.NumCPUs() - 1,
		Seed:      1,
	}
}

// DeterminismResult is one figure's worth of output.
type DeterminismResult struct {
	Name   string
	Report metrics.JitterReport
	// Hist bins the per-run variance from ideal in 10 ms buckets, the
	// x-axis of Figures 1–4.
	Hist *metrics.Histogram
}

// Legend renders the figure legend exactly as the paper prints it.
func (r DeterminismResult) Legend() string {
	return r.Report.Legend()
}

// Render draws the variance histogram (the paper's Figures 1-4 panels)
// plus the legend.
func (r DeterminismResult) Render() string {
	var b strings.Builder
	b.WriteString(report.Chart{
		Title:    fmt.Sprintf("%s — time difference from ideal", r.Name),
		Width:    40,
		Unit:     sim.Millisecond,
		UnitName: "ms",
		MaxRows:  25,
	}.Render(r.Hist))
	b.WriteString(r.Legend())
	return b.String()
}

// RunDeterminism executes the test: first a calibration pass on an
// unloaded system to establish the ideal time (the paper's method), then
// the loaded runs.
func RunDeterminism(cfg DeterminismConfig) DeterminismResult {
	if cfg.Runs <= 0 {
		cfg.Runs = 60
	}
	if cfg.LoopWork <= 0 {
		cfg.LoopWork = sim.DurationOf(1.15)
	}

	ideal := determinismPass(cfg, 3, false)

	// The paper reports the worst case over many runs; on a loaded SMP
	// machine the dominant run-to-run variable is where the scheduler
	// happened to park the background tasks (in particular whether one
	// sits on the measured CPU's hyperthread sibling). Sample several
	// independent placements and pool all loop timings.
	//
	// Each placement is an independent replication — its own system,
	// its own splitmix64-derived seed — so the set fans out across the
	// runner's worker pool and merges in index order.
	const placements = 6
	perPlacement := cfg.Runs / placements
	if perPlacement < 3 {
		perPlacement = 3
	}
	shards := runner.MapSeededPooled(cfg.Workers, cfg.Seed, placements, func(i int, seed uint64, pool *sim.EventPool) []sim.Duration {
		sub := cfg
		sub.Seed = seed
		sub.Kernel.EventPool = pool
		return determinismPass(sub, perPlacement, true)
	})
	loaded := slices.Concat(shards...)

	min := ideal[0]
	for _, d := range ideal {
		if d < min {
			min = d
		}
	}
	report := metrics.NewJitterReportWithIdeal(min, loaded)
	name := fmt.Sprintf("%s determinism", cfg.Kernel.Name)
	if cfg.Shield {
		name += " (shielded CPU)"
	}
	return DeterminismResult{
		Name:   name,
		Report: report,
		Hist:   report.VarianceHistogram(10*sim.Millisecond, 40),
	}
}

// determinismPass runs `runs` timed loops, with or without load, and
// returns the per-loop elapsed times.
func determinismPass(cfg DeterminismConfig, runs int, loaded bool) []sim.Duration {
	return buildDeterminismPass(cfg, runs, loaded).run()
}

// detPass is one determinism pass's started machine and its timed loop.
type detPass struct {
	s       *System
	loop    *detLoop
	horizon sim.Time
}

// buildDeterminismPass constructs, starts and (optionally) shields the
// machine for one pass, with its clock still at 0.
func buildDeterminismPass(cfg DeterminismConfig, runs int, loaded bool) *detPass {
	opts := SystemOptions{}
	if loaded {
		opts.Loads = []string{LoadScpFlood, LoadDiskNoise}
	}
	s := NewSystem(cfg.Kernel, cfg.Seed, opts)
	k := s.K

	// Unshielded runs pin the loop to CPU 0: with static 2.4 interrupt
	// routing all device interrupts land there, and the paper reports
	// worst-case jitter — i.e. the runs where the loop shares the
	// interrupt CPU. Shielded runs opt into the shielded CPU instead.
	affinity := kernel.MaskOf(0)
	if cfg.Shield {
		affinity = kernel.MaskOf(cfg.ShieldCPU)
	}

	loop := &detLoop{k: k, work: cfg.LoopWork, runs: runs, elapsed: make([]sim.Duration, 0, runs)}
	mt := k.NewTask("determinism-test", kernel.SchedFIFO, 90, affinity, loop)
	mt.MemLocked = true

	s.Start()
	if cfg.Shield {
		if err := s.ShieldCPU(cfg.ShieldCPU); err != nil {
			panic(err)
		}
	}
	// The loop stops the engine once its last run is timed; the horizon
	// (runs × loop × worst-case slowdown) is only a safety bound.
	horizon := sim.Time(cfg.LoopWork) * sim.Time(runs+2) * 2
	return &detPass{s: s, loop: loop, horizon: horizon}
}

// run simulates the pass until its last loop completes.
func (p *detPass) run() []sim.Duration {
	eng := p.s.K.Eng
	eng.Run(p.horizon)
	mustFinish(eng, "determinism pass", len(p.loop.elapsed), p.loop.runs)
	return p.loop.elapsed
}
