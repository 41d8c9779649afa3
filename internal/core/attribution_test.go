package core

import (
	"testing"

	"repro/internal/trace/attrib"
)

// attribTestScale keeps the attribution runs small; the golden-hash test
// covers the canonical goldenScale.
const attribTestScale = 0.02

// TestAttributionPartition: end to end — through the kernel's emit
// sites, the ring buffers, the per-sample sweep and the replication
// merge — the per-cause totals must still sum to the total latency
// exactly, and no trace records may be lost at the canonical ring size.
func TestAttributionPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	res, _ := tableFigure(t, "attrib-causes", attribTestScale, 7, 0, 0)
	r := res.(AttributionResult)
	for _, v := range []struct {
		name string
		s    attrib.Summary
	}{
		{"stock", r.Stock.Attribution},
		{"shielded", r.Shielded.Attribution},
	} {
		if v.s.Samples == 0 {
			t.Fatalf("%s: no attributed samples", v.name)
		}
		var sum int64
		for c := attrib.Cause(0); c < attrib.NumCauses; c++ {
			sum += int64(v.s.Total[c])
		}
		if sum != int64(v.s.TotalLatency) {
			t.Errorf("%s: causes sum to %d, total latency %d", v.name, sum, int64(v.s.TotalLatency))
		}
		var worst int64
		for c := attrib.Cause(0); c < attrib.NumCauses; c++ {
			worst += int64(v.s.WorstBreakdown[c])
		}
		if worst != int64(v.s.MaxLatency) {
			t.Errorf("%s: worst breakdown sums to %d, max latency %d", v.name, worst, int64(v.s.MaxLatency))
		}
		if v.s.LostRecords != 0 {
			t.Errorf("%s: %d trace records lost (ring too small for the figure)", v.name, v.s.LostRecords)
		}
	}
	// The figure's point: shielding removes the competing causes. The
	// stock worst case carries scheduling/softirq/lock delay; the
	// shielded one must not.
	bs := r.Shielded.Attribution
	if got := bs.WorstBreakdown[attrib.CauseSched] + bs.WorstBreakdown[attrib.CauseSoftirq] + bs.WorstBreakdown[attrib.CauseLock]; got >= bs.MaxLatency/2 {
		t.Errorf("shielded worst case dominated by removable causes (%v of %v)", got, bs.MaxLatency)
	}
	as := r.Stock.Attribution
	if as.Total[attrib.CauseSched] <= bs.Total[attrib.CauseSched] {
		t.Errorf("stock sched delay %v not above shielded %v", as.Total[attrib.CauseSched], bs.Total[attrib.CauseSched])
	}
}

// TestAttributionStability holds the new figure to the same contract as
// fig1–fig7: its CSV series must be bit-identical under tie-break
// perturbation salts and for any worker count.
func TestAttributionStability(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	_, base := tableFigure(t, "attrib-causes", attribTestScale, 7, 1, 0)
	for _, salt := range []uint64{1, 12345} {
		if _, got := tableFigure(t, "attrib-causes", attribTestScale, 7, 1, salt); got != base {
			t.Fatalf("tie-break salt %d changed the attribution series:\n%s\nvs baseline\n%s", salt, got, base)
		}
	}
	if _, got := tableFigure(t, "attrib-causes", attribTestScale, 7, 8, 0); got != base {
		t.Fatal("worker count changed the attribution series")
	}
}

// TestAttributionTraceWork pins the tracing work behind one attributed
// attrib-causes run (scale 0.05, seed 7, 5,000 samples per machine): the
// trace records the attributor reads per sample, a count free of
// wall-clock noise. The buffer an attributed run arms records only the
// kinds attribution reads: measured 13.02 (stock) and 8.64 (shielded)
// records per sample, down from 26.25 and 15.96 when it recorded every
// kind. Each bound is about 1.02x the measured count. Nothing may be
// lost to ring overflow.
func TestAttributionTraceWork(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	res, _ := tableFigure(t, "attrib-causes", 0.05, 7, 0, 0)
	r := res.(AttributionResult)
	for _, v := range []struct {
		name  string
		s     attrib.Summary
		bound float64
	}{
		{"stock", r.Stock.Attribution, 13.3},
		{"shielded", r.Shielded.Attribution, 8.8},
	} {
		perSample := float64(v.s.Records) / float64(v.s.Samples)
		t.Logf("%s: %d records over %d samples, %.2f per sample", v.name, v.s.Records, v.s.Samples, perSample)
		if perSample > v.bound {
			t.Errorf("%s: %.2f trace records read per sample, want <= %.2f", v.name, perSample, v.bound)
		}
		if v.s.LostRecords != 0 {
			t.Errorf("%s: %d trace records lost", v.name, v.s.LostRecords)
		}
	}
}
