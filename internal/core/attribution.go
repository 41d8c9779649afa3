package core

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace/attrib"
)

// attribTraceCapacity sizes the per-CPU trace rings behind an attributed
// run. Each sample reads only the records emitted since the previous
// one; the largest such read, summed over all rings, is 770 records at
// scale 0.05, 1,254 at 0.5 and 1,533 at 1.0 (attrib-causes, seeds 1-3).
// 4k slots per ring keep LostRecords at zero with headroom, at
// 3 × 4,096 × 48 B ≈ 0.6 MB per replication.
const attribTraceCapacity = 1 << 12

// AttributionResult pairs the stock and shielded runs of the
// "causes of delay" figure: the same RCIM response measurement, once on
// an unshielded kernel.org 2.4 machine and once on a shielded RedHawk
// CPU, each with the trace-derived latency decomposition attached.
type AttributionResult struct {
	Stock    ResponseResult
	Shielded ResponseResult
}

// Render prints the paper's "causes of delay" story as a table: the
// worst-case response on each machine, decomposed into what the CPU was
// actually doing while the sample waited. Shielding does not make the
// handler faster — it removes the competing causes (softirq, scheduling,
// lock spin) until only delivery and the task's own run time remain.
func (r AttributionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "causes of delay: worst-case RCIM response, decomposed from the trace\n\n")
	fmt.Fprintf(&b, "  A: %s\n  B: %s\n\n", r.Stock.Name, r.Shielded.Name)

	row := func(label, a, bcol string) {
		fmt.Fprintf(&b, "  %-22s %-20s %s\n", label, a, bcol)
	}
	row("", "A (stock)", "B (shielded)")
	as, bs := r.Stock.Attribution, r.Shielded.Attribution
	row("samples", fmt.Sprint(as.Samples), fmt.Sprint(bs.Samples))
	row("worst response", as.MaxLatency.String(), bs.MaxLatency.String())
	row("mean response", meanLatency(as), meanLatency(bs))
	b.WriteString("\n  worst-case breakdown (sums to the worst response exactly):\n")
	for c := attrib.Cause(0); c < attrib.NumCauses; c++ {
		row("  "+c.String(),
			causeCell(as.WorstBreakdown[c], as.MaxLatency),
			causeCell(bs.WorstBreakdown[c], bs.MaxLatency))
	}
	b.WriteString("\n  total time by cause across all samples:\n")
	for c := attrib.Cause(0); c < attrib.NumCauses; c++ {
		row("  "+c.String(),
			causeCell(as.Total[c], as.TotalLatency),
			causeCell(bs.Total[c], bs.TotalLatency))
	}
	row("migrations", fmt.Sprint(as.Migrations), fmt.Sprint(bs.Migrations))
	row("trace records lost", fmt.Sprint(as.LostRecords), fmt.Sprint(bs.LostRecords))
	return b.String()
}

// meanLatency renders TotalLatency/Samples; exact-integer inputs keep
// the string deterministic.
func meanLatency(s attrib.Summary) string {
	if s.Samples == 0 {
		return "-"
	}
	return (s.TotalLatency / sim.Duration(s.Samples)).String()
}

// causeCell renders one cause's share as "duration (pct%)".
func causeCell(d, total sim.Duration) string {
	if total <= 0 {
		return d.String()
	}
	return fmt.Sprintf("%-10s (%5.1f%%)", d.String(), 100*float64(d)/float64(total))
}

// attribCSV exports the figure's data series with exact integer
// nanosecond fields only, so the FNV-1a golden hash pins the full
// decomposition bit-for-bit.
func attribCSV(r AttributionResult) string {
	variants := []struct {
		name string
		s    attrib.Summary
	}{
		{"stock", r.Stock.Attribution},
		{"shielded", r.Shielded.Attribution},
	}
	var b strings.Builder
	b.WriteString("variant,samples,migrations,lost_records,total_latency_ns,max_latency_ns\n")
	for _, v := range variants {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d\n",
			v.name, v.s.Samples, v.s.Migrations, v.s.LostRecords,
			int64(v.s.TotalLatency), int64(v.s.MaxLatency))
	}
	b.WriteString("variant,cause,total_ns,worst_ns,worst_sample_ns\n")
	for _, v := range variants {
		for c := attrib.Cause(0); c < attrib.NumCauses; c++ {
			fmt.Fprintf(&b, "%s,%s,%d,%d,%d\n",
				v.name, c, int64(v.s.Total[c]), int64(v.s.Worst[c]),
				int64(v.s.WorstBreakdown[c]))
		}
	}
	return b.String()
}
