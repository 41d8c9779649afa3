package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestCanonicalKernelConfigErasesNonSemanticKnobs: two configs that
// differ only in knobs proven not to affect results (tie-break salt,
// event pool, invariant sampler) must canonicalise
// identically — that is the soundness condition for sharing one cache
// entry — while any semantic field must survive canonicalisation.
func TestCanonicalKernelConfigErasesNonSemanticKnobs(t *testing.T) {
	base := kernel.StandardLinux24(2, 2.0, false)
	perturbed := base
	perturbed.TiebreakSalt = 0x9e3779b97f4a7c15
	perturbed.EventPool = sim.NewEventPool()
	perturbed.InvariantPeriod = sim.Millisecond

	sprint := func(cfg kernel.Config) string { return fmt.Sprintf("%+v", cfg) }
	a, b := CanonicalKernelConfig(base), CanonicalKernelConfig(perturbed)
	if as, bs := sprint(a), sprint(b); as != bs {
		t.Fatalf("non-semantic knobs leaked into canonical config:\n a=%s\n b=%s", as, bs)
	}

	semantic := base
	semantic.LocalTimerHz = 1000
	if sprint(CanonicalKernelConfig(semantic)) == sprint(CanonicalKernelConfig(base)) {
		t.Fatal("semantic field (LocalTimerHz) erased by canonicalisation")
	}
}

// TestConfigTextMatchesReflection: a figure's encoding renders its
// config with the kernel text rendered once per machine; the bytes must
// equal fmt's %+v of the whole config, which is what the scenario keys
// were first derived from, for every figure config type and with the
// fields the served figures leave at zero set too.
func TestConfigTextMatchesReflection(t *testing.T) {
	machine := kernel.StandardLinux24(2, 0.933, false)
	rf := DefaultRealfeel(machine)
	rf.Seed, rf.Samples, rf.Replications = 0x9e3779b97f4a7c15, 12_345, 8
	rf.ExtraLoads, rf.FixedAPI, rf.ResidencyCap, rf.Attribute = []string{"scp-flood", "x11"}, true, 3*sim.Millisecond, true
	rc := DefaultRCIM(kernel.RedHawk14(2, 2.0))
	rc.ForceBKL, rc.Attribute = true, true
	det := DefaultDeterminism(kernel.StandardLinux24(2, 1.4, true))
	det.Shield = true
	for _, cfg := range []any{rf, DefaultRealfeel(machine), rc, det} {
		var kc kernel.Config
		reflected := cfg
		switch c := cfg.(type) {
		case RealfeelConfig:
			kc, c.Kernel = c.Kernel, CanonicalKernelConfig(c.Kernel)
			reflected = c
		case RCIMConfig:
			kc, c.Kernel = c.Kernel, CanonicalKernelConfig(c.Kernel)
			reflected = c
		case DeterminismConfig:
			kc, c.Kernel = c.Kernel, CanonicalKernelConfig(c.Kernel)
			reflected = c
		}
		if got, want := configText(cfg, canonicalKernelText(kc)), fmt.Sprintf("%+v", reflected); got != want {
			t.Errorf("%T:\nconfigText %s\n%%+v       %s", cfg, got, want)
		}
	}

	// The stored text serves its own machine, non-semantic knobs
	// aside, and no other.
	kt := newKernelText(machine)
	salted, other := machine, machine
	salted.TiebreakSalt = 5
	other.LowLatency = !other.LowLatency
	if kt.of(salted) != kt.text || kt.text != canonicalKernelText(machine) {
		t.Error("a machine differing only in its tie-break salt missed its stored text")
	}
	if kt.of(other) != canonicalKernelText(other) || kt.of(other) == kt.text {
		t.Error("a different machine was encoded with the stored text")
	}
}

// TestScenarioKeys pins the content-address algebra: same request →
// same key; any semantic change (figure, scale, seed, window) → a new
// key; the continuation image key shares across windows but splits on
// seed and machine.
func TestScenarioKeys(t *testing.T) {
	mk := func(fig string, scale float64, seed uint64, runFor int) Scenario {
		s, err := ResolveScenario(fig, scale, seed, runFor)
		if err != nil {
			t.Fatalf("ResolveScenario(%s, %v, %d, %d): %v", fig, scale, seed, runFor, err)
		}
		return s
	}

	a := mk("fig2", 0.05, 7, 0)
	if again := mk("fig2", 0.05, 7, 0); again.Key() != a.Key() {
		t.Fatal("same request produced different keys")
	}
	// The key addresses the *resolved* computation, not the raw request:
	// two scales that floor to the same run/sample counts are the same
	// computation and deliberately share one cache entry.
	if mk("fig2", 0.051, 7, 0).Key() != a.Key() {
		t.Fatal("scales resolving to the same configuration should share a key")
	}
	seen := map[string]string{a.Key(): a.Canonical()}
	for _, s := range []Scenario{
		mk("fig1", 0.05, 7, 0),
		mk("fig2", 2.0, 7, 0),
		mk("fig2", 0.05, 8, 0),
		mk("fig5", 0.02, 7, 0),
		mk("fig7", 0.02, 7, 0),
		mk("attrib-causes", 0.02, 7, 0),
		mk(ScenarioRefStock, 0, 7, 10),
		mk(ScenarioRefStock, 0, 7, 20),
		mk(ScenarioRefStock, 0, 8, 10),
		mk(ScenarioRefShielded, 0, 7, 10),
	} {
		if prev, dup := seen[s.Key()]; dup {
			t.Fatalf("key collision between scenarios:\n %s\n %s", prev, s.Canonical())
		}
		seen[s.Key()] = s.Canonical()
	}

	// run_for_ms=0 resolves to the default window — same key as asking
	// for the default explicitly.
	if mk(ScenarioRefStock, 0, 7, 0).Key() != mk(ScenarioRefStock, 0, 7, defaultContinuationMS).Key() {
		t.Fatal("default continuation window keys differently from explicit default")
	}

	// Boot images shard by (machine, seed) but are shared across windows.
	img := func(s Scenario) string {
		k, err := s.ImageKey()
		if err != nil {
			t.Fatalf("ImageKey: %v", err)
		}
		return k
	}
	i10, i20 := img(mk(ScenarioRefStock, 0, 7, 10)), img(mk(ScenarioRefStock, 0, 7, 20))
	if i10 != i20 {
		t.Fatal("continuation windows over the same boot got different image keys")
	}
	if img(mk(ScenarioRefStock, 0, 8, 10)) == i10 {
		t.Fatal("different seeds share a boot image key")
	}
	if img(mk(ScenarioRefShielded, 0, 7, 10)) == i10 {
		t.Fatal("stock and shielded machines share a boot image key")
	}
	if _, err := a.ImageKey(); err == nil {
		t.Fatal("figure scenario handed out a boot image key")
	}
}

// TestResolveScenarioValidation: malformed requests are refused with
// errors, never silently normalised into a runnable scenario.
func TestResolveScenarioValidation(t *testing.T) {
	for _, tc := range []struct {
		fig    string
		scale  float64
		runFor int
	}{
		{"fig99", 0.05, 0},          // unknown figure
		{"fig2", 0, 0},              // scale required for figures
		{"fig2", -1, 0},             // negative scale
		{"fig2", 20_000, 0},         // absurd scale
		{"fig2", 0.05, 10},          // run_for on a figure
		{ScenarioRefStock, 0.5, 10}, // scale on a continuation
		{ScenarioRefStock, 0, -1},   // negative window
	} {
		if _, err := ResolveScenario(tc.fig, tc.scale, 7, tc.runFor); err == nil {
			t.Errorf("ResolveScenario(%q, %v, 7, %d) accepted a malformed request", tc.fig, tc.scale, tc.runFor)
		}
	}
}

// TestRunScenarioMatchesFigureCSV: the service entry point returns
// exactly the figure's canonical CSV bytes — the bytes whose FNV-1a
// hash the reprocheck goldens pin — for any worker count.
func TestRunScenarioMatchesFigureCSV(t *testing.T) {
	s, err := ResolveScenario("fig1", 0.02, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FigureCSV("fig1", 0.02, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := RunScenario(s, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if string(got) != want {
			t.Fatalf("workers=%d: RunScenario diverged from FigureCSV", workers)
		}
	}
}

// TestContinuationColdWarmIdentical is the warm-start soundness pin:
// restoring the post-boot image and running the window must yield bytes
// identical to the cold boot-and-run, for both reference machines, and
// the shared event pool must not perturb either path.
func TestContinuationColdWarmIdentical(t *testing.T) {
	pool := sim.NewEventPool()
	for _, fig := range []string{ScenarioRefStock, ScenarioRefShielded} {
		s, err := ResolveScenario(fig, 0, 7, 15)
		if err != nil {
			t.Fatal(err)
		}
		cold, img, err := RunContinuationCold(s, nil)
		if err != nil {
			t.Fatalf("%s cold: %v", fig, err)
		}
		warm, err := RunContinuationWarm(s, img, pool)
		if err != nil {
			t.Fatalf("%s warm: %v", fig, err)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s: warm-started bytes diverge from cold run:\ncold: %s\nwarm: %s", fig, cold, warm)
		}
		// The transcript must also match RunScenario's cold path.
		again, err := RunScenario(s, 1)
		if err != nil {
			t.Fatalf("%s RunScenario: %v", fig, err)
		}
		if !bytes.Equal(cold, again) {
			t.Fatalf("%s: RunScenario diverges from RunContinuationCold", fig)
		}
	}
}

// TestCostVirtualMS: the admission cost model is positive for every
// served scenario and scales with the request.
func TestCostVirtualMS(t *testing.T) {
	for _, fig := range ServedScenarios() {
		scale, runFor := 0.05, 0
		if fig == ScenarioRefStock || fig == ScenarioRefShielded {
			scale, runFor = 0, 10
		}
		s, err := ResolveScenario(fig, scale, 7, runFor)
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if c := s.CostVirtualMS(); c <= 0 {
			t.Errorf("%s: non-positive cost %d", fig, c)
		}
	}

	small, _ := ResolveScenario(ScenarioRefStock, 0, 7, 10)
	big, _ := ResolveScenario(ScenarioRefStock, 0, 7, 500)
	if small.CostVirtualMS() >= big.CostVirtualMS() {
		t.Fatal("cost model does not grow with the continuation window")
	}
	if got := small.CostVirtualMS(); got != int64((refBootHorizon+10*sim.Millisecond)/sim.Millisecond) {
		t.Fatalf("continuation cost = %d, want boot+window", got)
	}
}
