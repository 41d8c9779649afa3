// Package metrics provides the statistics containers the experiments
// report: latency histograms with the same cumulative-bucket legends the
// paper prints under each figure, and jitter summaries for the determinism
// test.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Histogram accumulates durations into fixed-width bins and tracks exact
// min/max/mean. Bin width and count are chosen at construction; samples
// beyond the last bin land in an overflow bin (their exact values still
// contribute to min/max/mean).
type Histogram struct {
	binWidth sim.Duration
	bins     []uint64
	overflow uint64
	count    uint64
	sum      sim.Duration // exact integer-nanosecond sum, so Merge stays order-independent
	min, max sim.Duration
}

// NewHistogram returns a histogram with nbins bins of the given width.
func NewHistogram(binWidth sim.Duration, nbins int) *Histogram {
	if binWidth <= 0 || nbins <= 0 {
		panic("metrics: histogram needs positive bin width and count")
	}
	return &Histogram{
		binWidth: binWidth,
		bins:     make([]uint64, nbins),
		min:      math.MaxInt64,
	}
}

// Add records one sample. Negative samples are clamped to zero: they can
// only arise from measurement-boundary rounding and belong in the first bin.
func (h *Histogram) Add(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	idx := int(d / h.binWidth)
	if idx >= len(h.bins) {
		h.overflow++
		return
	}
	h.bins[idx]++
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.count }

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() sim.Duration { return h.max }

// Mean returns the arithmetic mean of all samples.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(float64(h.sum) / float64(h.count))
}

// Bin returns the count in bin i (0-based).
func (h *Histogram) Bin(i int) uint64 {
	if i < 0 || i >= len(h.bins) {
		return 0
	}
	return h.bins[i]
}

// NumBins returns the number of regular bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() sim.Duration { return h.binWidth }

// Overflow returns the number of samples beyond the last bin.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// CumulativeBelow returns how many samples were strictly below d.
// d is rounded down to a bin boundary; the overflow bin counts as below
// only when d exceeds the histogram range and max < d.
func (h *Histogram) CumulativeBelow(d sim.Duration) uint64 {
	full := int(d / h.binWidth)
	var n uint64
	for i := 0; i < full && i < len(h.bins); i++ {
		n += h.bins[i]
	}
	if full >= len(h.bins) && h.max < d {
		n += h.overflow
	}
	return n
}

// FractionBelow returns the fraction of samples strictly below d.
func (h *Histogram) FractionBelow(d sim.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.CumulativeBelow(d)) / float64(h.count)
}

// Percentile returns an upper bound for the p-th percentile (0 < p <= 100):
// the right edge of the bin that contains it.
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.bins {
		cum += c
		if cum >= target {
			return sim.Duration(i+1) * h.binWidth
		}
	}
	return h.max
}

// Legend renders the cumulative table the paper prints under its interrupt
// response figures, one row per threshold:
//
//	59484375 samples < 0.1ms (99.140%)
func (h *Histogram) Legend(thresholds []sim.Duration) string {
	var b strings.Builder
	for _, th := range thresholds {
		n := h.CumulativeBelow(th)
		fmt.Fprintf(&b, "%12d samples < %-8s (%7.3f%%)\n",
			n, th.String(), 100*float64(n)/float64(maxU64(h.count, 1)))
	}
	return b.String()
}

// Rows returns (right-edge, count) pairs for every non-empty bin plus the
// overflow bin, for plotting or table output.
func (h *Histogram) Rows() []BinRow {
	var rows []BinRow
	for i, c := range h.bins {
		if c > 0 {
			rows = append(rows, BinRow{Upper: sim.Duration(i+1) * h.binWidth, Count: c})
		}
	}
	if h.overflow > 0 {
		rows = append(rows, BinRow{Upper: h.max, Count: h.overflow, IsOverflow: true})
	}
	return rows
}

// BinRow is one row of histogram output.
type BinRow struct {
	Upper      sim.Duration // right edge of the bin (or max, for overflow)
	Count      uint64
	IsOverflow bool
}

// Merge adds all samples of other into h. Both histograms must have the
// same bin width and bin count.
func (h *Histogram) Merge(other *Histogram) error {
	if h.binWidth != other.binWidth || len(h.bins) != len(other.bins) {
		return fmt.Errorf("metrics: merge of incompatible histograms (%v/%d vs %v/%d)",
			h.binWidth, len(h.bins), other.binWidth, len(other.bins))
	}
	for i, c := range other.bins {
		h.bins[i] += c
	}
	h.overflow += other.overflow
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	return nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
