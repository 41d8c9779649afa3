package core

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace/attrib"
)

// RealfeelConfig parameterises the §6.1 interrupt response test: the
// realfeel benchmark reads /dev/rtc at 2048 Hz while the stress-kernel
// suite loads the machine.
type RealfeelConfig struct {
	Kernel kernel.Config
	// Hz is the RTC periodic rate.
	Hz int
	// Samples is how many interrupt responses to measure. The paper ran
	// 60,000,000 (~8 hours); the default here is scaled down and the
	// cmd/rtsim flag can restore the full run.
	Samples int
	// Shield runs the measurement on a fully shielded CPU with the RTC
	// interrupt affined to it (Figure 6).
	Shield    bool
	ShieldCPU int
	Seed      uint64
	// Replications, when > 1, splits Samples across that many
	// independent replications — each a fresh system with a seed derived
	// via splitmix64 from (Seed, replication index) — whose results are
	// merged in replication-index order. The merged figure is therefore
	// bit-identical for any worker count. This is what makes paper-scale
	// runs practical: replications execute in parallel.
	Replications int
	// Workers caps the replication worker pool; <= 0 means GOMAXPROCS.
	// Workers never affects results, only wall-clock time.
	Workers int
	// ExtraLoads adds workloads on top of the stress-kernel suite
	// (e.g. LoadScpFlood for heavy wire-interrupt traffic in the §6.2
	// ablation).
	ExtraLoads []string
	// FixedAPI uses the multithreaded RTC wait path (ReadCallFixed)
	// instead of read(2) through the generic fs layers — the paper's
	// conclusion says fixing those "remaining multithreading issues" is
	// what it takes for other standard APIs to reach RCIM-class
	// response.
	FixedAPI bool
	// ResidencyCap, when non-zero, overrides the stress-kernel's
	// heaviest-residency knob (the residency-cap sweep's parameter).
	ResidencyCap sim.Duration
	// Attribute arms the typed tracepoint buffer and charges every
	// response sample's latency to a cause (irq-off, softirq, spinlock,
	// sched, migration, run); the decomposition lands in
	// ResponseResult.Attribution. Tracing never perturbs the simulation —
	// emitting draws no randomness and schedules no events — so the
	// histogram is byte-identical with or without it.
	Attribute bool
}

// DefaultRealfeel fills the paper's parameters.
func DefaultRealfeel(cfg kernel.Config) RealfeelConfig {
	return RealfeelConfig{
		Kernel:    cfg,
		Hz:        2048,
		Samples:   400_000,
		ShieldCPU: cfg.NumCPUs() - 1,
		Seed:      1,
	}
}

// ResponseResult is an interrupt-response figure: the latency histogram
// and, via the embedded summary, its extremes and exact mean.
type ResponseResult struct {
	Name string
	Hist *metrics.Histogram
	metrics.ResponseSummary
	// WorstFSHold is the longest observed hold of any contended fs
	// spinlock during the run — the quantity the §6.2 fix bounds
	// (bottom halves preempting lock holders stretch it to
	// milliseconds on unfixed kernels).
	WorstFSHold sim.Duration
	// Attribution is the trace-derived per-cause latency decomposition,
	// populated when the config's Attribute flag is set; zero otherwise.
	Attribution attrib.Summary
}

// Legend renders the cumulative table the paper prints under Figures 5–6.
func (r ResponseResult) Legend(thresholds []sim.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d measured interrupts\n", r.Samples)
	fmt.Fprintf(&b, "min latency: %v\nmax latency: %v\navg latency: %v\n", r.Min, r.Max, r.Mean())
	b.WriteString(r.Hist.Legend(thresholds))
	return b.String()
}

// Chart renders the latency histogram with log-count bars, the shape of
// the paper's Figures 5–7, plus the cumulative legend.
func (r ResponseResult) Chart(thresholds []sim.Duration, unit sim.Duration, unitName string) string {
	var b strings.Builder
	b.WriteString(report.Chart{
		Title:    r.Name,
		Width:    40,
		LogScale: true,
		Unit:     unit,
		UnitName: unitName,
		MaxRows:  25,
	}.Render(r.Hist))
	b.WriteString(r.Legend(thresholds))
	return b.String()
}

// merge folds other into r in replication-index order: histogram bins,
// the response summary, and the worst lock hold. Both sides must come
// from the same experiment configuration (identical histogram shape).
func (r *ResponseResult) merge(other ResponseResult) {
	if err := r.Hist.Merge(other.Hist); err != nil {
		panic(err) // replications share one config; shapes cannot differ
	}
	r.ResponseSummary.Merge(other.ResponseSummary)
	r.Attribution.Merge(other.Attribution)
	if other.WorstFSHold > r.WorstFSHold {
		r.WorstFSHold = other.WorstFSHold
	}
}

// PaperThresholdsFig5 are the cumulative rows under Figure 5.
func PaperThresholdsFig5() []sim.Duration {
	out := []sim.Duration{100 * sim.Microsecond, 200 * sim.Microsecond}
	for _, ms := range []int{1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		out = append(out, sim.Duration(ms)*sim.Millisecond)
	}
	return out
}

// PaperThresholdsFig6 are the cumulative rows under Figure 6.
func PaperThresholdsFig6() []sim.Duration {
	var out []sim.Duration
	for i := 1; i <= 6; i++ {
		out = append(out, sim.Duration(i)*100*sim.Microsecond)
	}
	return out
}

// RunRealfeel executes the realfeel test and returns the latency
// histogram. Latency is measured the way realfeel measures it: the gap
// between consecutive returns from read(/dev/rtc) minus the expected
// period; anything beyond the period is response latency.
//
// With cfg.Replications > 1 the sample budget is sharded across
// independent replications executed on the runner worker pool and the
// results merged deterministically; see RealfeelConfig.Replications.
func RunRealfeel(cfg RealfeelConfig) ResponseResult {
	if cfg.Samples <= 0 {
		cfg.Samples = 400_000
	}
	return replicate(cfg.Workers, cfg.Seed, cfg.Kernel.EventPool, cfg.Replications, cfg.Samples,
		func(seed uint64, pool *sim.EventPool, samples int) ResponseResult {
			sub := cfg
			sub.Seed, sub.Kernel.EventPool, sub.Samples = seed, pool, samples
			return RunRealfeelModes(sub, cfg.Shield, cfg.Shield, cfg.Shield, cfg.Shield)
		})
}

// RunRealfeelModes is RunRealfeel with each shielding dimension
// controlled independently (the §3 shield-mode ablation): shield the CPU
// from processes, from interrupts, from the local timer, and whether the
// RTC interrupt is affined to the measurement CPU. It always executes a
// single replication.
func RunRealfeelModes(cfg RealfeelConfig, shieldProcs, shieldIRQs, shieldLTimer, affineRTC bool) ResponseResult {
	if cfg.Hz <= 0 {
		cfg.Hz = 2048
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 400_000
	}
	pinned := shieldProcs || shieldIRQs || shieldLTimer || affineRTC
	s := NewSystem(cfg.Kernel, cfg.Seed, SystemOptions{
		RTCHz:              cfg.Hz,
		Loads:              append([]string{LoadStressKernel}, cfg.ExtraLoads...),
		BroadcastTraffic:   true,
		StressResidencyCap: cfg.ResidencyCap,
	})
	k := s.K
	mask := kernel.MaskOf(cfg.ShieldCPU)
	affinity := kernel.CPUMask(0)
	if pinned {
		affinity = mask
	}
	call := s.RTC.ReadCall()
	if cfg.FixedAPI {
		call = s.RTC.ReadCallFixed()
	}
	period := s.RTC.Period()
	prev := sim.NoTime
	res := responseTest{
		sys:      s,
		task:     "realfeel",
		call:     call,
		affinity: affinity,
		samples:  cfg.Samples,
		// 0.1 ms bins out to 100 ms, the Figure 5 axis.
		hist: metrics.NewHistogram(100*sim.Microsecond, 1000),
		// The first read only primes prev; every later one is a sample.
		latency: func(now sim.Time) (sim.Duration, bool) {
			last := prev
			prev = now
			if last < 0 {
				return 0, false
			}
			return max(now.Sub(last)-period, 0), true
		},
		shield: func() {
			if shieldProcs {
				mustDo(k.SetShieldProcs(mask))
			}
			if shieldIRQs {
				mustDo(k.SetShieldIRQs(mask))
			}
			if shieldLTimer {
				mustDo(k.SetShieldLTimer(mask))
			}
			if affineRTC {
				// The RTC interrupt must follow the measurement task onto
				// the shielded CPU (the paper affines both).
				mustDo(k.SetIRQAffinity(s.RTC.IRQ(), mask))
			}
		},
		// Samples at Hz, padded for tail latencies. The horizon is only
		// the mustFinish guard (the run stops at its last sample), so it
		// is wide: a fig5 replication under stress-kernel has needed
		// 1.26 periods per sample.
		horizon:   sim.Time(2*cfg.Samples+2048) * sim.Time(period),
		attribute: cfg.Attribute,
	}.run()

	res.Name = fmt.Sprintf("%s realfeel @%dHz", cfg.Kernel.Name, cfg.Hz)
	if shieldProcs && shieldIRQs && shieldLTimer {
		res.Name += " (shielded CPU)"
	} else if pinned {
		res.Name += " (partial shield)"
	}
	for _, lockName := range []string{"dcache", "inode", "pagecache"} {
		if h := k.NamedLock(lockName).MaxHold; h > res.WorstFSHold {
			res.WorstFSHold = h
		}
	}
	return res
}

func mustDo(err error) {
	if err != nil {
		panic(err)
	}
}

// mustFinish is the guard after every experiment's Run(horizon): each
// measurement stops the engine once it has its last sample, so an
// engine that ran to its horizon instead cut the measurement short.
func mustFinish(e *sim.Engine, what string, got, want int) {
	if !e.Stopped() {
		panic(fmt.Sprintf("core: %s reached its horizon after %d of %d measurements", what, got, want))
	}
}
