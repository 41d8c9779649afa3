package metrics

import "repro/internal/sim"

// The summary below is the mergeable counterpart of the ad-hoc
// min/max/sum accumulators the experiment runners used to keep inline.
// It exists so the parallel replication engine (internal/runner) can
// fold per-replication results into one figure: every field is either a
// min, a max, or an exact integer sum, which makes Merge commutative and
// associative *bit-for-bit* — no floating-point accumulation order to
// worry about. Property tests in this package verify both laws.

// ResponseSummary aggregates interrupt-response latencies (§6): sample
// count, extremes, and the exact total for the mean. It is embedded in
// core.ResponseResult, so a figure's Samples/Min/Max are these fields.
type ResponseSummary struct {
	Samples uint64
	Min     sim.Duration
	Max     sim.Duration
	Total   sim.Duration // exact sum of all samples
}

// Add records one latency sample.
func (s *ResponseSummary) Add(d sim.Duration) {
	if s.Samples == 0 || d < s.Min {
		s.Min = d
	}
	if s.Samples == 0 || d > s.Max {
		s.Max = d
	}
	s.Samples++
	s.Total += d
}

// Merge folds another summary into s. The empty summary is the identity
// element; the operation is exactly commutative and associative.
func (s *ResponseSummary) Merge(o ResponseSummary) {
	if o.Samples == 0 {
		return
	}
	if s.Samples == 0 {
		*s = o
		return
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Samples += o.Samples
	s.Total += o.Total
}

// Mean returns the mean latency.
func (s ResponseSummary) Mean() sim.Duration {
	if s.Samples == 0 {
		return 0
	}
	return s.Total / sim.Duration(s.Samples)
}
