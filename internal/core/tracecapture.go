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
	buf := trace.NewBuffer(1 << 16)
	runRCIM(cfg, buf)
	return buf
}
