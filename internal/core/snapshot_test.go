package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSnapshotChecks runs the full snapshot claim set: resume
// equivalence, golden image hashes invariant under event-pool reuse,
// and warm-start reproducibility, for both reference machines.
func TestSnapshotChecks(t *testing.T) {
	results := SnapshotChecks(1)
	if len(results) != 6 {
		t.Fatalf("expected 6 snapshot claims, got %d", len(results))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("%s FAILED: %s (%s)", r.ID, r.Claim, r.Detail)
		} else {
			t.Logf("%s: %s", r.ID, r.Detail)
		}
	}
}

// TestResumeDivergenceDetected proves the resume-equivalence oracle has
// teeth: restoring the checkpoint into a machine continued with a
// different tie-break salt must NOT reproduce the uninterrupted bytes.
// (RestoreImageWarm with a non-zero salt is exactly that machine.)
func TestResumeDivergenceDetected(t *testing.T) {
	img, err := BootImage(RefStock, 1)
	if err != nil {
		t.Fatal(err)
	}
	h0, err := warmContinuationHash(RefStock, 1, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := warmContinuationHash(RefStock, 1, img, 0xdeadbeef)
	if err != nil {
		t.Fatal(err)
	}
	if h0 == h1 {
		t.Fatalf("perturbed continuation produced identical bytes (%s); the oracle cannot detect divergence", h0)
	}
}

// TestBisectCleanFixture: offset tick chains never collide, so no salt
// can change the dispatch order and the bisector must find nothing.
func TestBisectCleanFixture(t *testing.T) {
	build := func(salt uint64) (BisectReplica, error) {
		return newFxReplica(false, 42, salt), nil
	}
	res, err := RunBisect(build, 0x5eed, 30*sim.Time(sim.Millisecond), 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("clean fixture diverged: %v", res)
	}
	if res.Steps == 0 {
		t.Fatal("clean fixture recorded no dispatches")
	}
}

// TestBisectRaceFixture: the injected tie at 5 ms must be pinpointed —
// first divergent event at exactly the collision instant, with the two
// replicas dispatching opposite chains.
func TestBisectRaceFixture(t *testing.T) {
	build := func(salt uint64) (BisectReplica, error) {
		return newFxReplica(true, 42, salt), nil
	}
	var res BisectResult
	var err error
	found := false
	for i := uint64(1); i <= 16 && !found; i++ {
		res, err = RunBisect(build, sim.DeriveSeed(7, i), 30*sim.Time(sim.Millisecond), 8)
		if err != nil {
			t.Fatal(err)
		}
		found = res.Diverged
	}
	if !found {
		t.Fatal("no salt flipped the injected tie in 16 attempts")
	}
	if res.At != sim.Time(fxTieAt) {
		t.Fatalf("divergence at %v, want the tie instant %v: %v", res.At, sim.Time(fxTieAt), res)
	}
	ab := strings.HasPrefix(res.Baseline, "core.fx-a") && strings.HasPrefix(res.Mutant, "core.fx-b")
	ba := strings.HasPrefix(res.Baseline, "core.fx-b") && strings.HasPrefix(res.Mutant, "core.fx-a")
	if !ab && !ba {
		t.Fatalf("divergence is not the a/b tie flip: %v", res)
	}
	if res.Replayed < 1 || res.CheckpointStep > res.Step {
		t.Fatalf("implausible rewind accounting: %v", res)
	}
	t.Logf("%v", res)
}

// TestBisectMachineReplica drives a full kernel reference machine
// through the record/checkpoint/lockstep path. Identical construction
// on both sides must yield no divergence — this is the kernel-level
// checkpoint path under the bisector's microscope.
func TestBisectMachineReplica(t *testing.T) {
	build := func(salt uint64) (BisectReplica, error) {
		s, err := BootReference(RefShielded, 1, salt)
		if err != nil {
			return nil, err
		}
		return MachineReplica(s.K), nil
	}
	res, err := RunBisect(build, 0, sim.Time(refBootHorizon)+10*sim.Time(sim.Millisecond), 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("identically built machines diverged: %v", res)
	}
	if res.Steps == 0 {
		t.Fatal("machine replica recorded no dispatches")
	}
}

// TestBisectDemo is the reprocheck -bisect surface.
func TestBisectDemo(t *testing.T) {
	for _, d := range RunBisectDemo(1) {
		if !d.Pass {
			t.Errorf("%s FAILED: %s", d.Name, d.Detail)
		} else {
			t.Logf("%s: %s", d.Name, d.Detail)
		}
	}
}
