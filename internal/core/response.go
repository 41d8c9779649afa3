package core

import (
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/attrib"
)

// responseTest is one interrupt-response measurement, the shape both
// §6.1 realfeel and §6.3 RCIM share: a mlocked SCHED_FIFO 90 task blocks
// in a driver wait, and every return is timestamped against the
// interrupt. The fields are exactly what differs between the tests.
type responseTest struct {
	sys      *System
	task     string
	call     *kernel.SyscallCall
	affinity kernel.CPUMask
	samples  int
	hist     *metrics.Histogram
	// latency turns a completed wait into a sample; ok is false for a
	// wait that only primes the measurement.
	latency func(now sim.Time) (d sim.Duration, ok bool)
	// shield runs after Start: the shield and interrupt-affinity steps.
	shield  func()
	horizon sim.Time
	// trace, when non-nil, is armed before the task exists and records
	// every kind. attribute charges every sample's latency to causes
	// read from the trace; when trace is nil it arms a buffer sized for
	// attribution that records only the kinds attribution reads.
	trace     *trace.Buffer
	attribute bool
}

// run builds the task, starts and shields the system, and simulates
// until the last sample. The wait call and its completion are built once
// per run: the kernel never mutates a call definition, and the task has
// one call in flight. The result carries the histogram, summary and
// attribution; the caller names it.
func (rt responseTest) run() ResponseResult {
	k := rt.sys.K
	if rt.trace == nil && rt.attribute {
		rt.trace = trace.NewBuffer(attribTraceCapacity)
		rt.trace.SetFilter(attrib.Kinds...)
	}
	if rt.trace != nil {
		k.Trace = rt.trace
	}
	res := ResponseResult{Hist: rt.hist}
	var mt *kernel.Task
	var attr *attrib.Attributor
	onComplete := func(now sim.Time) {
		lat, ok := rt.latency(now)
		if !ok {
			return
		}
		rt.hist.Add(lat)
		res.Add(lat)
		if attr != nil {
			attr.Sample(now.Add(-lat), now, mt.CPU())
		}
	}
	behavior := kernel.BehaviorFunc(func(t *kernel.Task) kernel.Action {
		if int(res.Samples) >= rt.samples {
			k.Eng.Stop()
			return kernel.Exit()
		}
		act := kernel.Syscall(rt.call)
		act.OnComplete = onComplete
		return act
	})
	mt = k.NewTask(rt.task, kernel.SchedFIFO, 90, rt.affinity, behavior)
	mt.MemLocked = true
	if rt.attribute {
		attr = attrib.New(k.Trace, mt.PID)
	}

	rt.sys.Start()
	rt.shield()
	k.Eng.Run(rt.horizon)
	mustFinish(k.Eng, rt.task+" run", int(res.Samples), rt.samples)
	if attr != nil {
		res.Attribution = attr.Summary()
	}
	return res
}

// replicate runs a response test's sample budget. With reps > 1 —
// clamped to samples, so no replication runs empty — the budget is
// sharded across independent replications on the runner worker pool,
// each with a splitmix64-derived seed and its worker's event pool, and
// the results are merged in replication-index order; the first
// samples%reps shards carry the remainder. Otherwise run executes once
// on the caller's seed and pool.
func replicate(workers int, seed uint64, pool *sim.EventPool, reps, samples int,
	run func(seed uint64, pool *sim.EventPool, samples int) ResponseResult) ResponseResult {
	n := min(reps, samples)
	if n <= 1 {
		return run(seed, pool, samples)
	}
	parts := runner.MapSeededPooled(workers, seed, n, func(i int, seed uint64, pool *sim.EventPool) ResponseResult {
		size := samples / n
		if i < samples%n {
			size++
		}
		return run(seed, pool, size)
	})
	merged := parts[0]
	for _, p := range parts[1:] {
		merged.merge(p)
	}
	return merged
}
