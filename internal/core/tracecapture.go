package core

import (
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CaptureTrace runs a short single-replication window of the fig7 setup
// — the RCIM response test on a shielded RedHawk CPU under the full
// load mix — with every tracepoint armed, and returns the trace buffer
// for export (Buffer.WriteChromeTrace for Perfetto, Buffer.WriteText
// for a dmesg-style log). scale multiplies the captured sample count.
func CaptureTrace(scale float64, seed uint64) *trace.Buffer {
	cfg := DefaultRCIM(kernel.RedHawk14(2, 2.0))
	cfg.Samples = scaleSamples(2000, scale)
	cfg.Seed = sim.DeriveSeed(seed, streamTraceCap)

	s := NewSystem(cfg.Kernel, cfg.Seed, SystemOptions{
		RCIMPeriod: cfg.Period,
		WithGPU:    true,
		Loads:      []string{LoadStressKernel, LoadX11Perf, LoadTTCPNet},
	})
	k := s.K
	buf := trace.NewBuffer(1 << 16)
	k.Trace = buf

	samples := 0
	behavior := kernel.BehaviorFunc(func(*kernel.Task) kernel.Action {
		if samples >= cfg.Samples {
			k.Eng.Stop()
			return kernel.Exit()
		}
		act := kernel.Syscall(s.RCIM.WaitCall())
		act.OnComplete = func(sim.Time) { samples++ }
		return act
	})
	mt := k.NewTask("rcim-response", kernel.SchedFIFO, 90, kernel.MaskOf(cfg.ShieldCPU), behavior)
	mt.MemLocked = true

	s.Start()
	if err := s.ShieldCPU(cfg.ShieldCPU); err != nil {
		panic(err)
	}
	if err := k.SetIRQAffinity(s.RCIM.IRQ(), kernel.MaskOf(cfg.ShieldCPU)); err != nil {
		panic(err)
	}
	horizon := sim.Time(cfg.Samples+cfg.Samples/4+1000) * sim.Time(cfg.Period)
	k.Eng.Run(horizon)
	mustFinish(k.Eng, "trace capture", samples, cfg.Samples)
	return buf
}
