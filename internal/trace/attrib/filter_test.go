package attrib

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// emitOp decodes one 4-byte op and emits it into every buffer: kind
// (op[0], over every kind), clock advance in ns (op[1], 0 keeps the
// timestamp so records tie), CPU 0..2 (op[2]), and a pid 8..11 with a
// second CPU 0..2 for target, holder or from/to arguments (op[3]).
func emitOp(bufs []*trace.Buffer, at sim.Time, op []byte) {
	kind := trace.Kind(op[0] % uint8(trace.KindUser+1))
	cpu := int(op[2] % 3)
	pid := 8 + int(op[3]%4)
	other := int(op[3]>>2) % 3
	name := [...]string{"a", "b", "c", "d"}[op[3]%4]
	for _, b := range bufs {
		switch kind {
		case trace.KindIRQRaise:
			b.IRQRaise(at, cpu, 5, "rcim", other)
		case trace.KindIRQEnter:
			b.IRQEnter(at, cpu, 5, "rcim")
		case trace.KindIRQExit:
			b.IRQExit(at, cpu, 5, "rcim")
		case trace.KindSoftirqEnter:
			b.SoftirqEnter(at, cpu, sim.Duration(op[1]))
		case trace.KindSoftirqExit:
			b.SoftirqExit(at, cpu, sim.Duration(op[1]))
		case trace.KindSwitch:
			b.Switch(at, cpu, pid, name, 90)
		case trace.KindPreempt:
			b.Preempt(at, cpu, pid, name, op[1]&1 != 0)
		case trace.KindWakeup:
			b.Wakeup(at, cpu, pid, name, other)
		case trace.KindMigrate:
			b.Migrate(at, cpu, pid, name, cpu, other-1)
		case trace.KindSyscallEnter:
			b.SyscallEnter(at, cpu, pid, name, "ioctl")
		case trace.KindSyscallExit:
			b.SyscallExit(at, cpu, pid, name, "ioctl")
		case trace.KindLockContend:
			b.LockContend(at, cpu, "BKL", other)
		case trace.KindLockAcquire:
			b.LockAcquire(at, cpu, "BKL", sim.Duration(op[1]))
		case trace.KindLockRelease:
			b.LockRelease(at, cpu, "BKL", sim.Duration(op[1]))
		case trace.KindShield:
			b.Shield(at, "procs", 0, 1<<uint(other))
		case trace.KindTimerTick:
			b.TimerTick(at, cpu)
		case trace.KindTimerExpire:
			b.TimerExpire(at, cpu, 1, uint64(at))
		default:
			b.Emit(at, cpu, trace.KindUser, "user")
		}
	}
}

// FuzzAttributeIgnoresUnreadKinds is the equivalence proof behind
// attributed runs recording only Kinds: over arbitrary streams of every
// record kind — timestamps non-decreasing, as the clock stamps them —
// Attribute on the full stream and on the same stream recorded by a
// buffer filtered to Kinds must agree on breakdown, episodes and
// migrations for any window, CPU and pid. A kind Attribute reads that
// is missing from Kinds makes the two differ.
func FuzzAttributeIgnoresUnreadKinds(f *testing.F) {
	// A shielded response: raise, handler with wakeup, dispatch, with
	// syscall, lock-release and tick records interleaved.
	f.Add(uint16(0), uint16(2000), uint8(1), uint8(1), []byte{
		0, 100, 1, 1, 1, 20, 1, 1, 9, 0, 1, 1, 7, 30, 1, 5, 2, 40, 1, 1,
		5, 50, 1, 1, 10, 10, 1, 1, 13, 60, 1, 1, 15, 5, 1, 1, 6, 70, 1, 1,
	})
	// A stock response: softirq pass, spin on a lock, preempted task,
	// migration off the CPU and back, a shield transition.
	f.Add(uint16(50), uint16(3000), uint8(0), uint8(1), []byte{
		3, 10, 0, 0, 4, 20, 0, 0, 11, 30, 0, 4, 14, 0, 0, 0, 12, 80, 0, 0,
		7, 30, 0, 1, 5, 40, 0, 1, 6, 50, 0, 1, 8, 60, 0, 5, 7, 70, 1, 5,
		16, 20, 1, 1, 5, 90, 1, 1, 17, 1, 1, 1, 13, 3, 0, 0,
	})
	// Ties at the window's end: records of every kind at the same
	// instant as end.
	f.Add(uint16(0), uint16(100), uint8(0), uint8(2), []byte{
		7, 100, 0, 2, 9, 0, 0, 2, 1, 0, 0, 0, 13, 0, 0, 0, 2, 0, 0, 0,
		5, 0, 0, 2, 0, 0, 0, 0, 10, 0, 0, 2,
	})
	f.Fuzz(func(t *testing.T, start, length uint16, cpu, pid uint8, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		full, filtered := trace.NewBuffer(256), trace.NewBuffer(256)
		filtered.SetFilter(Kinds...)
		bufs := []*trace.Buffer{full, filtered}
		at := sim.Time(0)
		for i := 0; i+4 <= len(ops); i += 4 {
			at = at.Add(sim.Duration(ops[i+1]))
			emitOp(bufs, at, ops[i:i+4])
		}
		if full.Dropped() != 0 || filtered.Dropped() != 0 {
			t.Fatal("rings wrapped; the stream must fit")
		}
		s := sim.Time(start)
		e := s.Add(sim.Duration(length))
		c, p := int(cpu%3), 8+int(pid%4)
		fb, fe, fm := Attribute(full.Records(), s, e, c, p)
		gb, ge, gm := Attribute(filtered.Records(), s, e, c, p)
		if fb != gb || fe != ge || fm != gm {
			t.Fatalf("window [%v, %v] cpu %d pid %d: full stream %v episodes %v migrations %d; filtered to Kinds %v episodes %v migrations %d",
				s, e, c, p, fb, fe, fm, gb, ge, gm)
		}
	})
}
