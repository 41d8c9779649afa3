package kernel_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// identityInstants is how many checkpoints TestSnapshotRestoreIdentity
// takes on each machine.
const identityInstants = 32

// identityMachine is one machine of the identity sweep: boot returns
// it started and past its boot instant, fresh returns a started
// machine of the same construction for restore to overwrite.
type identityMachine struct {
	name  string
	boot  func() (*kernel.Kernel, error)
	fresh func() (*kernel.Kernel, error)
	step  sim.Duration
}

func refIdentityMachine(ref core.ReferenceMachine) identityMachine {
	const seed = 7
	return identityMachine{
		name: "ref-" + string(ref),
		boot: func() (*kernel.Kernel, error) {
			s, err := core.BootReference(ref, seed, 0)
			if err != nil {
				return nil, err
			}
			return s.K, nil
		},
		fresh: func() (*kernel.Kernel, error) {
			s, err := core.BuildReference(ref, seed, nil)
			if err != nil {
				return nil, err
			}
			return s.K, nil
		},
		step: 3070 * sim.Microsecond,
	}
}

// TestSnapshotRestoreIdentity is the read-side guard of the snapshot
// codec. At each of 32 instants on the two reference machines and the
// kernel's own snap machine it snapshots, restores the image into a
// freshly built machine, and snapshots that machine at once: the two
// images must be byte-identical, so restore reads back every byte the
// snapshot wrote. The sweep must also reach each kind of state that is
// hard to restore; an instant list that stopped reaching one would
// leave its decode path unguarded.
func TestSnapshotRestoreIdentity(t *testing.T) {
	machines := []identityMachine{
		refIdentityMachine(core.RefStock),
		refIdentityMachine(core.RefShielded),
		{
			name: "snap-machine",
			boot: func() (*kernel.Kernel, error) {
				k := kernel.BuildSnapMachine(42)
				k.Start()
				return k, nil
			},
			fresh: func() (*kernel.Kernel, error) {
				k := kernel.BuildSnapMachine(42)
				k.Start()
				return k, nil
			},
			step: 1130 * sim.Microsecond,
		},
	}
	reached := map[string]int{}
	for _, m := range machines {
		k, err := m.boot()
		if err != nil {
			t.Fatalf("%s: boot: %v", m.name, err)
		}
		for i := 0; i < identityInstants; i++ {
			k.Eng.Run(k.Now().Add(m.step))
			img, err := k.Snapshot()
			if err != nil {
				t.Fatalf("%s instant %d: snapshot: %v", m.name, i, err)
			}
			for _, kind := range kernel.SnapStateKinds(k) {
				reached[kind]++
			}
			if pendingKind(t, img, "dev.disk-complete") {
				reached["pending disk completion"]++
			}
			r, err := m.fresh()
			if err != nil {
				t.Fatalf("%s: build: %v", m.name, err)
			}
			if err := r.RestoreImage(img); err != nil {
				t.Fatalf("%s instant %d (t=%v): restore: %v", m.name, i, k.Now(), err)
			}
			again, err := r.Snapshot()
			if err != nil {
				t.Fatalf("%s instant %d: re-snapshot: %v", m.name, i, err)
			}
			if !bytes.Equal(img, again) {
				t.Fatalf("%s instant %d (t=%v): re-snapshot after restore differs: %s", m.name, i, k.Now(), firstDiff(img, again))
			}
		}
	}
	var names []string
	for kind, n := range reached {
		names = append(names, fmt.Sprintf("%s=%d", kind, n))
	}
	sort.Strings(names)
	t.Logf("state kinds reached: %v", names)
	for _, kind := range []string{
		"in-flight syscall", "saved frame", "ISR frame",
		"spin frame with lock waiter", "queued wheel timer", "pending disk completion",
	} {
		if reached[kind] == 0 {
			t.Errorf("the sweep never reached a snapshot holding a %s", kind)
		}
	}
}

// pendingKind reports whether the image's engine section holds a
// pending event of the given kind.
func pendingKind(t *testing.T, img []byte, kind string) bool {
	t.Helper()
	r, err := snapshot.OpenReader(img)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sim.NewEngine(0).Visit(r.Codec())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// firstDiff locates the first differing byte of two images.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first difference at byte %d of %d/%d", i, len(a), len(b))
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(a), len(b))
}
