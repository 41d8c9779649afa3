// Package attrib turns the typed trace stream into a latency
// attribution: for each response sample it walks the records bracketing
// the sample's window and charges every nanosecond of the delay to a
// cause — interrupt handling / interrupt-off time, softirq processing,
// spinlock spin, scheduling/preemption wait, or cross-CPU migration —
// reproducing the paper's "causes of delay" decomposition from the
// trace itself.
//
// The per-sample breakdown is an exact partition: the charged causes
// always sum to the sample's latency. Summaries are mergeable under the
// same law as metrics.ResponseSummary (empty identity; commutative,
// associative, exact-integer fields), so attribution survives the
// parallel replication engine's index-ordered merge bit-for-bit.
package attrib

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Cause is one bucket of the latency decomposition.
type Cause uint8

// Causes, in severity order for reporting.
const (
	// CauseIRQOff is time spent in (or waiting behind) hardware
	// interrupt handlers, including the delivery of the measured
	// interrupt itself.
	CauseIRQOff Cause = iota
	// CauseSoftirq is bottom-half processing delaying the sample.
	CauseSoftirq
	// CauseLock is spinlock spin time on the sample's CPU.
	CauseLock
	// CauseSched is time runnable but waiting for dispatch (scheduling
	// latency, preemption by other activity, switch overhead).
	CauseSched
	// CauseMigrate is time spent being moved between CPUs.
	CauseMigrate
	// CauseRun is the measured task's own execution (handler body and
	// syscall return path) — the irreducible part of the response.
	CauseRun
	NumCauses
)

var causeNames = [NumCauses]string{
	"irq-off", "softirq", "spinlock", "sched", "migration", "run",
}

// String names the cause.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Summary aggregates per-sample attributions. The zero value is the
// merge identity. All fields are exact integers (counts and nanosecond
// sums/maxima), so Merge is commutative and associative bit-for-bit —
// the same contract as metrics.ResponseSummary, which makes a Summary
// safe to fold across replications in runner index order.
type Summary struct {
	// Samples is the number of attributed response samples.
	Samples uint64
	// Migrations counts migration records seen inside sample windows.
	Migrations uint64
	// LostRecords counts trace records overwritten before the
	// attributor could read them (ring overflow between samples).
	LostRecords uint64
	// Records counts the trace records the attributor read: the
	// tracing work behind the summary, free of wall-clock noise.
	Records uint64

	// TotalLatency and MaxLatency aggregate the attributed samples'
	// end-to-end latencies.
	TotalLatency sim.Duration
	MaxLatency   sim.Duration

	// Total is the per-cause sum over all samples; summed over causes
	// it equals TotalLatency exactly.
	Total [NumCauses]sim.Duration
	// Worst is the per-cause maximum over samples (each cause's worst
	// single-sample share, not necessarily from the same sample).
	Worst [NumCauses]sim.Duration
	// WorstBreakdown is the full decomposition of the MaxLatency
	// sample; it sums to MaxLatency exactly.
	WorstBreakdown [NumCauses]sim.Duration
	// WorstEpisode is the per-cause maximum over contiguous same-cause
	// episodes. An episode ends when the charged cause changes and is
	// force-split at every IRQ/softirq/lock-grant trace record, so each
	// one lies inside a single kernel region — the quantity simlint's
	// static latbound envelope bounds per region.
	WorstEpisode [NumCauses]sim.Duration
}

// add folds one attributed sample into the summary.
func (s *Summary) add(lat sim.Duration, breakdown, episodes [NumCauses]sim.Duration, migrations uint64) {
	s.Samples++
	s.Migrations += migrations
	s.TotalLatency += lat
	for c := Cause(0); c < NumCauses; c++ {
		s.Total[c] += breakdown[c]
		if breakdown[c] > s.Worst[c] {
			s.Worst[c] = breakdown[c]
		}
		if episodes[c] > s.WorstEpisode[c] {
			s.WorstEpisode[c] = episodes[c]
		}
	}
	if lat > s.MaxLatency {
		s.MaxLatency = lat
		s.WorstBreakdown = breakdown
	}
}

// Merge folds o into s. Sums add, maxima take the larger value, and the
// worst-sample breakdown follows the strictly greater MaxLatency — on a
// tie the receiver (lower merge index) wins, which is what makes the
// fold order-stable for the replication engine.
func (s *Summary) Merge(o Summary) {
	s.Samples += o.Samples
	s.Migrations += o.Migrations
	s.LostRecords += o.LostRecords
	s.Records += o.Records
	s.TotalLatency += o.TotalLatency
	for c := Cause(0); c < NumCauses; c++ {
		s.Total[c] += o.Total[c]
		if o.Worst[c] > s.Worst[c] {
			s.Worst[c] = o.Worst[c]
		}
		if o.WorstEpisode[c] > s.WorstEpisode[c] {
			s.WorstEpisode[c] = o.WorstEpisode[c]
		}
	}
	if o.MaxLatency > s.MaxLatency {
		s.MaxLatency = o.MaxLatency
		s.WorstBreakdown = o.WorstBreakdown
	}
}

// taskKind reports whether the record's A argument is a pid.
func taskKind(k trace.Kind) bool {
	switch k {
	case trace.KindSwitch, trace.KindPreempt, trace.KindWakeup,
		trace.KindMigrate, trace.KindSyscallEnter, trace.KindSyscallExit:
		return true
	}
	return false
}

// attrState is the sweep state while walking a window's records.
type attrState struct {
	cpu       int // the CPU whose activity delays the sample right now
	isr       int // hardware-interrupt nesting depth on cpu
	soft      int // softirq nesting depth on cpu (0 or 1 in practice)
	spinning  bool
	running   bool // the measured task is executing
	woken     bool // the measured task is runnable, waiting for dispatch
	migrating bool
}

// cause resolves the sweep state to the charged cause, in stack order:
// what is literally on top of the CPU (interrupt work, bottom halves,
// lock spin) outranks the task states below it. A window that has seen
// no events yet is waiting for interrupt delivery, which is CauseIRQOff.
func (st *attrState) cause() Cause {
	switch {
	case st.isr > 0:
		return CauseIRQOff
	case st.soft > 0:
		return CauseSoftirq
	case st.spinning:
		return CauseLock
	case st.running:
		return CauseRun
	case st.migrating:
		return CauseMigrate
	case st.woken:
		return CauseSched
	default:
		return CauseIRQOff
	}
}

// moveTo retargets the sweep to a different CPU. The per-CPU stack
// state (isr/softirq/spin) belonged to the old CPU and is unknown on
// the new one, so it resets; the task-centric flags survive.
func (st *attrState) moveTo(cpu int) {
	if cpu == st.cpu {
		return
	}
	st.cpu = cpu
	st.isr = 0
	st.soft = 0
	st.spinning = false
}

// Kinds lists every record kind Attribute reads: the ones that change
// the sweep state or split an episode. Any other record only charges
// the open segment up to its timestamp, a split at which the cause
// stays the same, so a buffer that records just these kinds yields the
// same breakdown, episodes and migrations (records are stamped with the
// clock at emit, so At never decreases along Seq and the window's end
// is found at the same place either way). FuzzAttributeIgnoresUnreadKinds
// checks the equivalence; a kind Attribute starts reading must be added
// here.
var Kinds = []trace.Kind{
	trace.KindIRQEnter, trace.KindIRQExit,
	trace.KindSoftirqEnter, trace.KindSoftirqExit,
	trace.KindLockContend, trace.KindLockAcquire,
	trace.KindWakeup, trace.KindSwitch, trace.KindPreempt, trace.KindMigrate,
}

// Attribute walks recs (in sequence order) and partitions the window
// [start, end] of the sample that completed for task pid into causes.
// cpu is the CPU on which the sample's interrupt is delivered. Records
// before start still update state, so activity entered before the
// window (an in-flight softirq pass, say) is charged correctly inside
// it. The returned breakdown sums to end-start exactly.
//
// episodes is the per-cause maximum over contiguous same-cause spans.
// A span ends when the cause changes, and is additionally force-split
// at every IRQ enter/exit, softirq enter/exit, and lock-acquire record
// on the sweep CPU: under that splitting every irq-off episode lies
// inside one ISR frame slice or one interrupts-disabled segment run,
// every softirq episode inside one budgeted pass, and every spinlock
// episode inside one acquisition wait — the regions simlint's latbound
// analyzer bounds statically.
func Attribute(recs []trace.Record, start, end sim.Time, cpu, pid int) (breakdown, episodes [NumCauses]sim.Duration, migrations uint64) {
	if end <= start {
		return
	}
	st := attrState{cpu: cpu}
	segStart := start
	epCause := Cause(0)
	var epLen sim.Duration
	// split closes the open episode against the per-cause maximum.
	split := func() {
		if epLen > episodes[epCause] {
			episodes[epCause] = epLen
		}
		epLen = 0
	}
	// charge closes the open segment [segStart, t) against the current
	// state's cause.
	charge := func(t sim.Time) {
		if t > end {
			t = end
		}
		if t > segStart {
			c := st.cause()
			d := t.Sub(segStart)
			breakdown[c] += d
			if c != epCause {
				split()
				epCause = c
			}
			epLen += d
			segStart = t
		}
	}
	for _, r := range recs {
		forTask := taskKind(r.Kind) && int(r.A) == pid
		if int(r.CPU) != st.cpu && !forTask {
			continue
		}
		if r.At >= end {
			break
		}
		charge(r.At)
		switch r.Kind {
		case trace.KindIRQEnter, trace.KindIRQExit,
			trace.KindSoftirqEnter, trace.KindSoftirqExit,
			trace.KindLockAcquire:
			if int(r.CPU) == st.cpu {
				split()
			}
		}
		switch r.Kind {
		case trace.KindIRQEnter:
			st.isr++
		case trace.KindIRQExit:
			if st.isr > 0 {
				st.isr--
			}
		case trace.KindSoftirqEnter:
			st.soft++
		case trace.KindSoftirqExit:
			if st.soft > 0 {
				st.soft--
			}
		case trace.KindLockContend:
			st.spinning = true
		case trace.KindLockAcquire:
			st.spinning = false
		case trace.KindWakeup:
			if forTask {
				st.woken = true
				st.migrating = false
				st.moveTo(int(r.C))
			}
		case trace.KindSwitch:
			if forTask {
				st.moveTo(int(r.CPU))
				st.running = true
				st.woken = false
				st.migrating = false
			} else if st.running {
				// Someone else switched in on our CPU without a
				// preempt record: the task is no longer running.
				st.running = false
				st.woken = true
			}
		case trace.KindPreempt:
			if forTask {
				st.running = false
				st.woken = true
			}
		case trace.KindMigrate:
			if forTask {
				if r.At >= start {
					migrations++
				}
				st.migrating = true
				st.running = false
			}
		}
	}
	charge(end)
	split()
	return breakdown, episodes, migrations
}

// Attributor drains a trace buffer incrementally and accumulates a
// Summary, one Sample call per response measurement. It keeps a cursor
// into the record stream, so each record is read once, and reuses its
// scratch slice, so steady-state sampling does not allocate.
type Attributor struct {
	buf     *trace.Buffer
	pid     int
	cursor  uint64
	scratch []trace.Record
	sum     Summary
}

// New returns an attributor reading buf for task pid's samples. The
// cursor starts at the buffer's current position: records emitted
// before New are outside the first window and are skipped.
func New(buf *trace.Buffer, pid int) *Attributor {
	return &Attributor{buf: buf, pid: pid, cursor: buf.Seq()}
}

// Sample attributes one response measurement spanning [start, end] on
// cpu (where the measured interrupt is delivered) and folds it into the
// summary.
func (a *Attributor) Sample(start, end sim.Time, cpu int) {
	var lost uint64
	a.scratch, lost = a.buf.AppendSince(a.scratch[:0], a.cursor)
	a.cursor = a.buf.Seq()
	a.sum.LostRecords += lost
	a.sum.Records += uint64(len(a.scratch))
	breakdown, episodes, migrations := Attribute(a.scratch, start, end, cpu, a.pid)
	a.sum.add(end.Sub(start), breakdown, episodes, migrations)
}

// Summary returns the accumulated attribution.
func (a *Attributor) Summary() Summary { return a.sum }
