package kernel

import (
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 2, 5)
	if !m.Has(0) || m.Has(1) || !m.Has(2) || !m.Has(5) {
		t.Fatalf("MaskOf wrong: %s", m)
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d", m.Count())
	}
	if m.First() != 0 {
		t.Fatalf("First = %d", m.First())
	}
	if got := m.Without(0).First(); got != 2 {
		t.Fatalf("First after Without = %d", got)
	}
	if CPUMask(0).First() != -1 {
		t.Fatal("First of empty should be -1")
	}
	if got := m.With(1); !got.Has(1) {
		t.Fatal("With failed")
	}
	cpus := m.CPUs()
	if len(cpus) != 3 || cpus[0] != 0 || cpus[1] != 2 || cpus[2] != 5 {
		t.Fatalf("CPUs = %v", cpus)
	}
	if m.Has(-1) || m.Has(64) {
		t.Fatal("Has out of range should be false")
	}
	for i, c := range cpus {
		if got := m.nth(i); got != c {
			t.Fatalf("nth(%d) = %d, want %d", i, got, c)
		}
	}
	if m.nth(len(cpus)) != -1 || CPUMask(0).nth(0) != -1 {
		t.Fatal("nth past the last CPU should be -1")
	}
}

func TestMaskAll(t *testing.T) {
	if MaskAll(0) != 0 || MaskAll(-1) != 0 {
		t.Fatal("MaskAll of non-positive should be empty")
	}
	if MaskAll(2) != 3 {
		t.Fatalf("MaskAll(2) = %s", MaskAll(2))
	}
	if MaskAll(64) != ^CPUMask(0) || MaskAll(100) != ^CPUMask(0) {
		t.Fatal("MaskAll should saturate at 64")
	}
}

func TestMaskSetAlgebra(t *testing.T) {
	a, b := MaskOf(0, 1), MaskOf(1, 2)
	if a.Intersect(b) != MaskOf(1) {
		t.Fatal("Intersect")
	}
	if a.Union(b) != MaskOf(0, 1, 2) {
		t.Fatal("Union")
	}
	if a.Diff(b) != MaskOf(0) {
		t.Fatal("Diff")
	}
	if !MaskOf(1).SubsetOf(a) || a.SubsetOf(b) {
		t.Fatal("SubsetOf")
	}
	if !CPUMask(0).Empty() || a.Empty() {
		t.Fatal("Empty")
	}
}

func TestMaskStringAndParse(t *testing.T) {
	cases := []struct {
		m CPUMask
		s string
	}{
		{MaskOf(0, 1), "3"},
		{MaskOf(1), "2"},
		{MaskOf(4, 5), "30"},
		{0, "0"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.s {
			t.Errorf("String(%d) = %q, want %q", uint64(c.m), got, c.s)
		}
		back, err := ParseMask(c.s)
		if err != nil || back != c.m {
			t.Errorf("ParseMask(%q) = %s, %v", c.s, back, err)
		}
	}
	for _, s := range []string{"0x3\n", " 3 ", "0X3"} {
		if m, err := ParseMask(s); err != nil || m != 3 {
			t.Errorf("ParseMask(%q) = %v, %v", s, m, err)
		}
	}
	for _, s := range []string{"", "zz", "0x", "-1"} {
		if _, err := ParseMask(s); err == nil {
			t.Errorf("ParseMask(%q) should fail", s)
		}
	}
}

func TestQuickMaskRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		m := CPUMask(v)
		back, err := ParseMask(m.String())
		return err == nil && back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveAffinitySemantics(t *testing.T) {
	online := MaskAll(4)
	cases := []struct {
		name                       string
		affinity, shielded, expect CPUMask
	}{
		{"no shield", MaskAll(4), 0, MaskAll(4)},
		{"shielded removed", MaskAll(4), MaskOf(1), MaskOf(0, 2, 3)},
		{"opt-in keeps shielded", MaskOf(1), MaskOf(1), MaskOf(1)},
		{"opt-in multiple", MaskOf(1, 2), MaskOf(1, 2, 3), MaskOf(1, 2)},
		{"mixed loses shielded", MaskOf(0, 1), MaskOf(1), MaskOf(0)},
		{"offline pruned", MaskOf(0, 5), 0, MaskOf(0)},
		{"all offline", MaskOf(6, 7), 0, 0},
	}
	for _, c := range cases {
		if got := EffectiveAffinity(c.affinity, c.shielded, online); got != c.expect {
			t.Errorf("%s: EffectiveAffinity(%s,%s) = %s, want %s",
				c.name, c.affinity, c.shielded, got, c.expect)
		}
	}
}

// Property (the paper's core invariant): the effective affinity never
// includes a shielded CPU unless the original affinity was a subset of
// the shield set; and it is always a subset of affinity∩online.
func TestQuickEffectiveAffinityInvariant(t *testing.T) {
	online := MaskAll(8)
	f := func(aff, sh uint8) bool {
		a, s := CPUMask(aff), CPUMask(sh)
		eff := EffectiveAffinity(a, s, online)
		if !eff.SubsetOf(a & online) {
			return false
		}
		if a&online == 0 {
			return eff == 0
		}
		optIn := (a & online).SubsetOf(s)
		if !optIn && eff.Intersect(s) != 0 {
			return false
		}
		// Never strand a task that has an online CPU.
		return eff != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
