package metrics

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// The merge laws the parallel replication engine relies on: merging
// per-shard summaries must give exactly the result of one unsharded
// accumulation, regardless of how samples are split or in which order
// shards are folded. Summaries are built from generated sample slices
// (never from free-form field values), so every tested value is
// reachable by Add.

func responseOf(samples []uint32) ResponseSummary {
	var s ResponseSummary
	for _, v := range samples {
		s.Add(sim.Duration(v))
	}
	return s
}

func TestResponseSummaryMergeCommutative(t *testing.T) {
	f := func(a, b []uint32) bool {
		ab := responseOf(a)
		ab.Merge(responseOf(b))
		ba := responseOf(b)
		ba.Merge(responseOf(a))
		return ab == ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponseSummaryMergeAssociative(t *testing.T) {
	f := func(a, b, c []uint32) bool {
		left := responseOf(a)
		left.Merge(responseOf(b))
		left.Merge(responseOf(c))

		bc := responseOf(b)
		bc.Merge(responseOf(c))
		right := responseOf(a)
		right.Merge(bc)
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponseSummaryMergeEqualsUnsharded(t *testing.T) {
	f := func(a, b []uint32) bool {
		merged := responseOf(a)
		merged.Merge(responseOf(b))
		return merged == responseOf(append(append([]uint32{}, a...), b...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryMergeEmptyIdentity(t *testing.T) {
	f := func(a []uint32) bool {
		r := responseOf(a)
		r.Merge(ResponseSummary{})
		left := ResponseSummary{}
		left.Merge(responseOf(a))
		return r == responseOf(a) && left == responseOf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryStats(t *testing.T) {
	var s ResponseSummary
	for _, v := range []sim.Duration{100, 150, 130} {
		s.Add(v)
	}
	if s.Samples != 3 || s.Min != 100 || s.Max != 150 || s.Mean() != 126 {
		t.Fatalf("summary %+v", s)
	}
	if (ResponseSummary{}).Mean() != 0 {
		t.Fatal("empty summary must have zero mean")
	}
}

// TestHistogramPercentileInvariantUnderSharding: splitting a stream into
// shards, histogramming each shard, and merging must leave every
// percentile (and the cumulative counts they derive from) exactly equal
// to the unsharded histogram's.
func TestHistogramPercentileInvariantUnderSharding(t *testing.T) {
	f := func(samples []uint16, cut uint8) bool {
		if len(samples) == 0 {
			return true
		}
		const binW, nbins = 16, 64
		whole := NewHistogram(binW, nbins)
		for _, v := range samples {
			whole.Add(sim.Duration(v))
		}

		// Shard at an arbitrary generated cut point (plus an empty shard,
		// which must be a no-op).
		k := int(cut) % (len(samples) + 1)
		shards := [][]uint16{samples[:k], samples[k:], nil}
		merged := NewHistogram(binW, nbins)
		for _, sh := range shards {
			part := NewHistogram(binW, nbins)
			for _, v := range sh {
				part.Add(sim.Duration(v))
			}
			if err := merged.Merge(part); err != nil {
				return false
			}
		}

		for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
			if merged.Percentile(p) != whole.Percentile(p) {
				return false
			}
		}
		for _, th := range []sim.Duration{0, 1, binW, 3 * binW, binW * nbins, 1 << 20} {
			if merged.CumulativeBelow(th) != whole.CumulativeBelow(th) {
				return false
			}
		}
		return merged.Count() == whole.Count() &&
			merged.Min() == whole.Min() && merged.Max() == whole.Max() &&
			reflect.DeepEqual(merged.Rows(), whole.Rows())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHistogramMergeIncompatible pins the error path the replication
// merge relies on never hitting.
func TestHistogramMergeIncompatible(t *testing.T) {
	a := NewHistogram(10, 10)
	if err := a.Merge(NewHistogram(20, 10)); err == nil {
		t.Error("bin-width mismatch must error")
	}
	if err := a.Merge(NewHistogram(10, 20)); err == nil {
		t.Error("bin-count mismatch must error")
	}
}
