package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/attrib"
)

// RCIMConfig parameterises the §6.3 interrupt response test: the RCIM
// card's periodic timer interrupts a shielded CPU; the test blocks in an
// ioctl (no BKL, multithreaded driver) and timestamps its wakeup by
// reading the card's memory-mapped count register. The load is the
// stress-kernel suite plus x11perf on the console and ttcp over a
// 10BaseT Ethernet.
type RCIMConfig struct {
	Kernel kernel.Config
	// Period is the RCIM periodic cycle.
	Period sim.Duration
	// Samples to measure (paper: 60,000,000 over ~8 hours).
	Samples int
	// Shield runs the measurement on a fully shielded CPU (the paper's
	// configuration). Disable for ablations.
	Shield    bool
	ShieldCPU int
	Seed      uint64
	// Replications, when > 1, shards Samples across independent
	// replications merged in index order; see
	// RealfeelConfig.Replications for the determinism contract.
	Replications int
	// Workers caps the replication worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// ForceBKL makes the RCIM driver claim it needs the BKL, the §6.3
	// ablation showing why the per-driver flag matters.
	ForceBKL bool
	// Attribute arms the typed tracepoint buffer and decomposes every
	// response sample's latency into causes; see
	// RealfeelConfig.Attribute for the determinism guarantee.
	Attribute bool
}

// DefaultRCIM fills the paper's parameters.
func DefaultRCIM(cfg kernel.Config) RCIMConfig {
	return RCIMConfig{
		Kernel:    cfg,
		Period:    sim.Millisecond,
		Samples:   400_000,
		Shield:    true,
		ShieldCPU: cfg.NumCPUs() - 1,
		Seed:      1,
	}
}

// RunRCIM executes the RCIM interrupt response test. Latency is the
// count-register reading at the moment the woken test task is back in
// user space — time since the interrupt fired, measured by the device
// itself, exactly as the paper does.
//
// With cfg.Replications > 1 the sample budget is sharded across
// independent replications executed on the runner worker pool and the
// results merged deterministically.
func RunRCIM(cfg RCIMConfig) ResponseResult {
	if cfg.Period <= 0 {
		cfg.Period = sim.Millisecond
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 400_000
	}
	if n := replicationCount(cfg.Replications, cfg.Samples); n > 1 {
		parts := runner.MapSeededPooled(cfg.Workers, cfg.Seed, n, func(i int, seed uint64, pool *sim.EventPool) ResponseResult {
			sub := cfg
			sub.Replications = 1
			sub.Samples = shardSize(cfg.Samples, n, i)
			sub.Seed = seed
			sub.Kernel.EventPool = pool
			return RunRCIM(sub)
		})
		return mergeResponses(parts)
	}
	s := NewSystem(cfg.Kernel, cfg.Seed, SystemOptions{
		RCIMPeriod: cfg.Period,
		WithGPU:    true,
		Loads:      []string{LoadStressKernel, LoadX11Perf, LoadTTCPNet},
	})
	k := s.K
	if cfg.Attribute {
		k.Trace = trace.NewBuffer(attribTraceCapacity)
	}

	affinity := kernel.CPUMask(0)
	if cfg.Shield {
		affinity = kernel.MaskOf(cfg.ShieldCPU)
	}

	// 1 µs bins out to 10 ms: Figure 7 is a thin-bar histogram in
	// microseconds.
	hist := metrics.NewHistogram(sim.Microsecond, 10000)
	samples := 0
	var sum metrics.ResponseSummary
	var mt *kernel.Task
	var attr *attrib.Attributor

	// The wait call and its completion are built once per run (see
	// RunRealfeelModes).
	call := s.RCIM.WaitCall()
	if cfg.ForceBKL {
		call.DriverNoBKL = false
	}
	onComplete := func(now sim.Time) {
		// Immediately read the mapped count register.
		lat := s.RCIM.CountElapsed(now)
		hist.Add(lat)
		sum.Add(lat)
		samples++
		if attr != nil {
			// The count register dates the interrupt itself, so the
			// sample window opens at the device's raise instant.
			attr.Sample(now.Add(-lat), now, mt.CPU())
		}
	}
	behavior := kernel.BehaviorFunc(func(t *kernel.Task) kernel.Action {
		if samples >= cfg.Samples {
			k.Eng.Stop()
			return kernel.Exit()
		}
		act := kernel.Syscall(call)
		act.OnComplete = onComplete
		return act
	})
	mt = k.NewTask("rcim-response", kernel.SchedFIFO, 90, affinity, behavior)
	mt.MemLocked = true
	if cfg.Attribute {
		attr = attrib.New(k.Trace, mt.PID)
	}

	s.Start()
	if cfg.Shield {
		if err := s.ShieldCPU(cfg.ShieldCPU); err != nil {
			panic(err)
		}
		if err := k.SetIRQAffinity(s.RCIM.IRQ(), kernel.MaskOf(cfg.ShieldCPU)); err != nil {
			panic(err)
		}
	}
	horizon := sim.Time(cfg.Samples+cfg.Samples/4+1000) * sim.Time(cfg.Period)
	k.Eng.Run(horizon)
	mustFinish(k.Eng, "RCIM run", samples, cfg.Samples)

	name := fmt.Sprintf("%s RCIM response", cfg.Kernel.Name)
	if cfg.Shield {
		name += " (shielded CPU)"
	}
	if cfg.ForceBKL {
		name += " [BKL forced]"
	}
	res := ResponseResult{
		Name:            name,
		Hist:            hist,
		ResponseSummary: sum,
	}
	if attr != nil {
		res.Attribution = attr.Summary()
	}
	return res
}

// PaperThresholdsFig7 are the cumulative rows under Figure 7.
func PaperThresholdsFig7() []sim.Duration {
	return []sim.Duration{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond, 50 * sim.Microsecond, 100 * sim.Microsecond}
}
