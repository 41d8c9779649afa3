package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
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
	return replicate(cfg.Workers, cfg.Seed, cfg.Kernel.EventPool, cfg.Replications, cfg.Samples,
		func(seed uint64, pool *sim.EventPool, samples int) ResponseResult {
			sub := cfg
			sub.Seed, sub.Kernel.EventPool, sub.Samples = seed, pool, samples
			return runRCIM(sub, nil)
		})
}

// runRCIM executes one replication of the RCIM test with buf, when
// non-nil, as its trace buffer.
func runRCIM(cfg RCIMConfig, buf *trace.Buffer) ResponseResult {
	s := NewSystem(cfg.Kernel, cfg.Seed, SystemOptions{
		RCIMPeriod: cfg.Period,
		WithGPU:    true,
		Loads:      []string{LoadStressKernel, LoadX11Perf, LoadTTCPNet},
	})
	affinity := kernel.CPUMask(0)
	if cfg.Shield {
		affinity = kernel.MaskOf(cfg.ShieldCPU)
	}
	call := s.RCIM.WaitCall()
	if cfg.ForceBKL {
		call.DriverNoBKL = false
	}
	res := responseTest{
		sys:      s,
		task:     "rcim-response",
		call:     call,
		affinity: affinity,
		samples:  cfg.Samples,
		// 1 µs bins out to 10 ms: Figure 7 is a thin-bar histogram in
		// microseconds.
		hist: metrics.NewHistogram(sim.Microsecond, 10000),
		// Immediately read the mapped count register: it dates the
		// interrupt itself.
		latency: func(now sim.Time) (sim.Duration, bool) { return s.RCIM.CountElapsed(now), true },
		shield: func() {
			if cfg.Shield {
				mustDo(s.ShieldCPU(cfg.ShieldCPU))
				mustDo(s.K.SetIRQAffinity(s.RCIM.IRQ(), affinity))
			}
		},
		// Only the mustFinish guard, as in RunRealfeel: the stock
		// attrib-causes machine has needed 1.28 periods per sample.
		horizon:   sim.Time(2*cfg.Samples+1000) * sim.Time(cfg.Period),
		trace:     buf,
		attribute: cfg.Attribute,
	}.run()

	res.Name = fmt.Sprintf("%s RCIM response", cfg.Kernel.Name)
	if cfg.Shield {
		res.Name += " (shielded CPU)"
	}
	if cfg.ForceBKL {
		res.Name += " [BKL forced]"
	}
	return res
}

// PaperThresholdsFig7 are the cumulative rows under Figure 7.
func PaperThresholdsFig7() []sim.Duration {
	return []sim.Duration{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond, 50 * sim.Microsecond, 100 * sim.Microsecond}
}
