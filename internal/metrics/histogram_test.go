package metrics

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(sim.Millisecond, 10)
	h.Add(0)
	h.Add(500 * sim.Microsecond)
	h.Add(1500 * sim.Microsecond)
	h.Add(9500 * sim.Microsecond)
	h.Add(50 * sim.Millisecond) // overflow

	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Bin(0) != 2 || h.Bin(1) != 1 || h.Bin(9) != 1 {
		t.Fatalf("bins = %d %d %d", h.Bin(0), h.Bin(1), h.Bin(9))
	}
	if h.Overflow() != 1 {
		t.Fatalf("Overflow = %d", h.Overflow())
	}
	if h.Min() != 0 {
		t.Fatalf("Min = %v", h.Min())
	}
	if h.Max() != 50*sim.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(sim.Microsecond, 4)
	h.Add(-5)
	if h.Bin(0) != 1 || h.Min() != 0 {
		t.Fatal("negative sample not clamped into first bin")
	}
}

func TestCumulativeBelow(t *testing.T) {
	h := NewHistogram(100*sim.Microsecond, 1000) // 0.1ms bins to 100ms
	h.Add(50 * sim.Microsecond)
	h.Add(150 * sim.Microsecond)
	h.Add(5 * sim.Millisecond)
	h.Add(92300 * sim.Microsecond)

	if got := h.CumulativeBelow(100 * sim.Microsecond); got != 1 {
		t.Fatalf("below 0.1ms = %d, want 1", got)
	}
	if got := h.CumulativeBelow(200 * sim.Microsecond); got != 2 {
		t.Fatalf("below 0.2ms = %d, want 2", got)
	}
	if got := h.CumulativeBelow(10 * sim.Millisecond); got != 3 {
		t.Fatalf("below 10ms = %d, want 3", got)
	}
	if got := h.CumulativeBelow(100 * sim.Millisecond); got != 4 {
		t.Fatalf("below 100ms = %d, want 4", got)
	}
}

func TestCumulativeBelowWithOverflow(t *testing.T) {
	h := NewHistogram(sim.Millisecond, 10)
	h.Add(5 * sim.Millisecond)
	h.Add(20 * sim.Millisecond) // overflow; max = 20ms
	if got := h.CumulativeBelow(15 * sim.Millisecond); got != 1 {
		t.Fatalf("below 15ms = %d, want 1 (overflow sample is >= 15ms)", got)
	}
	if got := h.CumulativeBelow(25 * sim.Millisecond); got != 2 {
		t.Fatalf("below 25ms = %d, want 2 (max < 25ms)", got)
	}
}

func TestFractionBelow(t *testing.T) {
	h := NewHistogram(sim.Millisecond, 100)
	for i := 0; i < 99; i++ {
		h.Add(sim.Duration(i%2) * 500 * sim.Microsecond)
	}
	h.Add(50 * sim.Millisecond)
	if got := h.FractionBelow(sim.Millisecond); got != 0.99 {
		t.Fatalf("FractionBelow(1ms) = %v, want 0.99", got)
	}
	empty := NewHistogram(sim.Millisecond, 4)
	if empty.FractionBelow(sim.Millisecond) != 0 {
		t.Fatal("FractionBelow on empty should be 0")
	}
}

func TestPercentile(t *testing.T) {
	h := NewHistogram(sim.Microsecond, 100)
	for i := 1; i <= 100; i++ {
		h.Add(sim.Duration(i)*sim.Microsecond - 1) // one sample per bin
	}
	if got := h.Percentile(50); got != 50*sim.Microsecond {
		t.Fatalf("p50 = %v, want 50µs", got)
	}
	if got := h.Percentile(99); got != 99*sim.Microsecond {
		t.Fatalf("p99 = %v, want 99µs", got)
	}
	if got := h.Percentile(100); got != 100*sim.Microsecond {
		t.Fatalf("p100 = %v, want 100µs", got)
	}
}

func TestMean(t *testing.T) {
	h := NewHistogram(sim.Microsecond, 10)
	h.Add(10)
	h.Add(20)
	h.Add(30)
	if got := h.Mean(); got != 20 {
		t.Fatalf("Mean = %v, want 20", got)
	}
	if NewHistogram(sim.Microsecond, 1).Mean() != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestLegendFormat(t *testing.T) {
	h := NewHistogram(100*sim.Microsecond, 1000)
	for i := 0; i < 991; i++ {
		h.Add(50 * sim.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Add(5 * sim.Millisecond)
	}
	legend := h.Legend([]sim.Duration{100 * sim.Microsecond, 10 * sim.Millisecond})
	if !strings.Contains(legend, "991 samples") {
		t.Fatalf("legend missing cumulative count:\n%s", legend)
	}
	if !strings.Contains(legend, "99.100%") {
		t.Fatalf("legend missing percentage:\n%s", legend)
	}
	if !strings.Contains(legend, "1000 samples") {
		t.Fatalf("legend missing total row:\n%s", legend)
	}
}

func TestRows(t *testing.T) {
	h := NewHistogram(sim.Millisecond, 4)
	h.Add(500 * sim.Microsecond)
	h.Add(3500 * sim.Microsecond)
	h.Add(10 * sim.Millisecond)
	rows := h.Rows()
	if len(rows) != 3 {
		t.Fatalf("Rows len = %d, want 3", len(rows))
	}
	if rows[0].Upper != sim.Millisecond || rows[0].Count != 1 {
		t.Fatalf("row0 = %+v", rows[0])
	}
	if !rows[2].IsOverflow {
		t.Fatal("last row should be overflow")
	}
}

func TestMerge(t *testing.T) {
	a := NewHistogram(sim.Millisecond, 10)
	b := NewHistogram(sim.Millisecond, 10)
	a.Add(1 * sim.Millisecond)
	b.Add(2 * sim.Millisecond)
	b.Add(99 * sim.Millisecond)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 || a.Max() != 99*sim.Millisecond || a.Overflow() != 1 {
		t.Fatalf("merged: count=%d max=%v overflow=%d", a.Count(), a.Max(), a.Overflow())
	}
	c := NewHistogram(sim.Microsecond, 10)
	if err := a.Merge(c); err == nil {
		t.Fatal("merge of incompatible histograms should error")
	}
}

// Property: total samples are conserved across bins + overflow, and
// cumulative counts are monotone in the threshold.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHistogram(100*sim.Microsecond, 64)
		for _, v := range raw {
			h.Add(sim.Duration(v))
		}
		var inBins uint64
		for i := 0; i < h.NumBins(); i++ {
			inBins += h.Bin(i)
		}
		if inBins+h.Overflow() != h.Count() || h.Count() != uint64(len(raw)) {
			return false
		}
		prev := uint64(0)
		for th := sim.Duration(0); th <= 7*sim.Millisecond; th += 300 * sim.Microsecond {
			cur := h.CumulativeBelow(th)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge is equivalent to adding all samples into one histogram.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(a, b []uint32) bool {
		h1 := NewHistogram(100*sim.Microsecond, 32)
		h2 := NewHistogram(100*sim.Microsecond, 32)
		all := NewHistogram(100*sim.Microsecond, 32)
		for _, v := range a {
			h1.Add(sim.Duration(v))
			all.Add(sim.Duration(v))
		}
		for _, v := range b {
			h2.Add(sim.Duration(v))
			all.Add(sim.Duration(v))
		}
		if err := h1.Merge(h2); err != nil {
			return false
		}
		if h1.Count() != all.Count() || h1.Overflow() != all.Overflow() ||
			h1.Min() != all.Min() || h1.Max() != all.Max() || h1.Mean() != all.Mean() {
			return false
		}
		for i := 0; i < 32; i++ {
			if h1.Bin(i) != all.Bin(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
