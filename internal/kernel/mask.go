package kernel

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// CPUMask is a bitmask of logical CPU numbers, the same representation the
// Linux /proc interfaces use (bit n set = CPU n included). The simulator
// supports up to 64 logical CPUs, far beyond the dual-Xeon machines in the
// paper.
type CPUMask uint64

// MaskAll returns a mask with the first n CPUs set.
func MaskAll(n int) CPUMask {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^CPUMask(0)
	}
	return (CPUMask(1) << uint(n)) - 1
}

// MaskOf returns a mask with exactly the given CPUs set.
func MaskOf(cpus ...int) CPUMask {
	var m CPUMask
	for _, c := range cpus {
		m |= 1 << uint(c)
	}
	return m
}

// Has reports whether CPU c is in the mask.
func (m CPUMask) Has(c int) bool {
	if c < 0 || c >= 64 {
		return false
	}
	return m&(1<<uint(c)) != 0
}

// With returns m with CPU c added.
func (m CPUMask) With(c int) CPUMask { return m | 1<<uint(c) }

// Without returns m with CPU c removed.
func (m CPUMask) Without(c int) CPUMask { return m &^ (1 << uint(c)) }

// Intersect returns the CPUs in both masks.
func (m CPUMask) Intersect(o CPUMask) CPUMask { return m & o }

// Union returns the CPUs in either mask.
func (m CPUMask) Union(o CPUMask) CPUMask { return m | o }

// Diff returns the CPUs in m but not in o.
func (m CPUMask) Diff(o CPUMask) CPUMask { return m &^ o }

// Empty reports whether no CPU is set.
func (m CPUMask) Empty() bool { return m == 0 }

// SubsetOf reports whether every CPU in m is also in o.
func (m CPUMask) SubsetOf(o CPUMask) bool { return m&^o == 0 }

// Count returns the number of CPUs set.
func (m CPUMask) Count() int {
	n := 0
	for v := uint64(m); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// First returns the lowest CPU set, or -1 when empty.
func (m CPUMask) First() int {
	if m == 0 {
		return -1
	}
	for i := 0; i < 64; i++ {
		if m.Has(i) {
			return i
		}
	}
	return -1
}

// nth returns the i-th set CPU (0-based, ascending), or -1 when the mask
// has no more than i CPUs. It walks the bits without building a slice.
func (m CPUMask) nth(i int) int {
	for v := uint64(m); v != 0; v &= v - 1 {
		if i == 0 {
			return bits.TrailingZeros64(v)
		}
		i--
	}
	return -1
}

// CPUs returns the set CPUs in ascending order.
func (m CPUMask) CPUs() []int {
	out := make([]int, 0, m.Count())
	for i := 0; i < 64; i++ {
		if m.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the mask the way /proc/irq/*/smp_affinity prints it:
// lower-case hex with no leading zeros (zero prints as "0").
func (m CPUMask) String() string {
	return strconv.FormatUint(uint64(m), 16)
}

// ParseMask parses the hex representation accepted by the /proc affinity
// files, tolerating a 0x prefix, surrounding whitespace and a trailing
// newline (echo adds one).
func ParseMask(s string) (CPUMask, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(strings.ToLower(s), "0x")
	if s == "" {
		return 0, fmt.Errorf("kernel: empty CPU mask")
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("kernel: invalid CPU mask %q", s)
	}
	return CPUMask(v), nil
}

// EffectiveAffinity applies the shielded-CPU affinity semantics from §3 of
// the paper: CPUs that are shielded are removed from the affinity of a
// process or interrupt, UNLESS the affinity contains only shielded CPUs —
// the entity has opted in, so it keeps its mask. online restricts the
// result to CPUs that exist.
//
// The result can be empty only if affinity∩online is empty, which callers
// must treat as a configuration error.
func EffectiveAffinity(affinity, shielded, online CPUMask) CPUMask {
	a := affinity & online
	if a == 0 {
		return 0
	}
	if a.SubsetOf(shielded) {
		return a // opted in: runs only on shielded CPUs
	}
	if eff := a.Diff(shielded); eff != 0 {
		return eff
	}
	return a
}
