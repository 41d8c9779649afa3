package core

import (
	"bytes"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// evDrip identifies the background broadcast-frame drip's events; A0 is
// the drip component's id.
var evDrip = sim.RegisterEventKind("core.drip")

// broadcastDrip delivers the light background broadcast traffic
// (SystemOptions.BroadcastTraffic) as a registered, snapshot-restorable
// component instead of a self-rescheduling closure.
type broadcastDrip struct {
	s   *System
	rng *sim.RNG
	id  uint64
}

func newBroadcastDrip(s *System) *broadcastDrip {
	k := s.K
	d := &broadcastDrip{s: s, rng: k.Eng.RNG().Fork()}
	d.id = k.RegisterComponent(d)
	k.Eng.AfterTagged(d.rng.Uniform(0, 50*sim.Millisecond), evDrip.Tag(d.id, 0, 0), d.fire)
	return d
}

func (d *broadcastDrip) fire() {
	d.s.NIC.Receive(200 + d.rng.Intn(400))
	d.s.K.Eng.AfterTagged(d.rng.Uniform(20*sim.Millisecond, 120*sim.Millisecond),
		evDrip.Tag(d.id, 0, 0), d.fire)
}

// SnapName implements kernel.SnapComponent.
func (d *broadcastDrip) SnapName() string { return "core.drip" }

// SnapVisit implements kernel.SnapComponent.
func (d *broadcastDrip) SnapVisit(c *snapshot.Codec) {
	if !c.Section(d.SnapName()) {
		return
	}
	d.rng.Visit(c, 1)
	c.End()
}

// detLoop is the §5.1 determinism measurement behavior: the mlocked
// SCHED_FIFO sine loop timed with the TSC. All measurement state crosses
// snapshots in the behavior words, so a determinism pass can checkpoint
// mid-run and resume to the identical elapsed-time series.
type detLoop struct {
	k    *kernel.Kernel
	work sim.Duration
	runs int

	started sim.Time
	done    int
	elapsed []sim.Duration
}

func (b *detLoop) Next(t *kernel.Task) kernel.Action {
	if b.done >= b.runs {
		// The last loop is timed: nothing after this instant is
		// measured, so the pass ends here rather than at its horizon.
		b.k.Eng.Stop()
		return kernel.Exit()
	}
	b.started = b.k.Now() // first TSC read
	return kernel.Compute(b.work)
}

// ActionDone is the second TSC read, at the same completion instant the
// former OnComplete closure ran.
func (b *detLoop) ActionDone(t *kernel.Task, kind kernel.ActionKind, now sim.Time) {
	if kind != kernel.ActCompute {
		return
	}
	b.elapsed = append(b.elapsed, now.Sub(b.started))
	b.done++
}

func (b *detLoop) BehaviorName() string { return "core.det-loop" }

func (b *detLoop) BehaviorState() []uint64 {
	words := make([]uint64, 0, 2+len(b.elapsed))
	words = append(words, uint64(b.done), uint64(b.started))
	for _, d := range b.elapsed {
		words = append(words, uint64(d))
	}
	return words
}

func (b *detLoop) SetBehaviorState(words []uint64) {
	b.done = int(words[0])
	b.started = sim.Time(words[1])
	b.elapsed = b.elapsed[:0]
	for _, w := range words[2:] {
		b.elapsed = append(b.elapsed, sim.Duration(w))
	}
}

func init() {
	kernel.RegisterComponentRebuild("core.drip", func(d *broadcastDrip, _ uint64) (func(), error) { return d.fire, nil })
	snapshot.RegisterState(broadcastDrip{}, snapshot.Manifest{
		"s":   "skip: construction back-pointer",
		"rng": "codec",
		"id":  "skip: registration-order identity",
	})
	snapshot.RegisterState(detLoop{}, snapshot.Manifest{
		"k":       "skip: construction back-pointer",
		"work":    "skip: construction-fixed measurement parameter",
		"runs":    "skip: construction-fixed measurement parameter",
		"started": "codec", // behavior word 1
		"done":    "codec", // behavior word 0
		"elapsed": "codec", // behavior words 2..n
	})
}

// ReferenceMachine selects one of the snapshot reference machines:
// "stock" (kernel.org 2.4.18) or "shielded" (RedHawk 1.4 with the last
// CPU fully shielded). Both boot under the full load mix.
type ReferenceMachine string

// The snapshot reference machines.
const (
	RefStock    ReferenceMachine = "stock"
	RefShielded ReferenceMachine = "shielded"
)

// refBootHorizon is how much virtual time the reference machines run
// before the post-boot snapshot: long enough for every load to be in
// flight (transfers, writeback, timer cascades), short enough for the
// claim to be cheap.
const refBootHorizon = 40 * sim.Millisecond

// refKernelConfig returns the kernel configuration behind a reference
// machine — the canonical-config unit the simd service hashes snapshot
// image keys from.
func refKernelConfig(ref ReferenceMachine) (kernel.Config, error) {
	switch ref {
	case RefStock:
		return kernel.StandardLinux24(2, 2.0, false), nil
	case RefShielded:
		return kernel.RedHawk14(2, 2.0), nil
	default:
		return kernel.Config{}, fmt.Errorf("core: unknown reference machine %q", ref)
	}
}

// BootReference builds a reference machine under the full load mix and
// runs it to the post-boot instant. salt installs a tie-break
// perturbation at construction.
func BootReference(ref ReferenceMachine, seed uint64, salt uint64) (*System, error) {
	return buildReference(ref, seed, salt, nil, true)
}

// BuildReference is BootReference without the boot run: the machine is
// constructed, started and shielded exactly like BootReference's, but
// its clock still sits at 0 — the shape the restore protocol's
// reconstruct-then-overwrite contract needs. Warm starts restore a
// post-boot image into it instead of replaying the boot horizon.
func BuildReference(ref ReferenceMachine, seed uint64, pool *sim.EventPool) (*System, error) {
	return buildReference(ref, seed, 0, pool, false)
}

// buildReference constructs (and optionally boots) a reference machine.
// pool, when non-nil, supplies the engine's event-node free list — the
// per-worker pool discipline of runner.MapSeededPooled carried into the
// simd service's long-lived workers.
func buildReference(ref ReferenceMachine, seed uint64, salt uint64, pool *sim.EventPool, boot bool) (*System, error) {
	cfg, err := refKernelConfig(ref)
	if err != nil {
		return nil, err
	}
	cfg.TiebreakSalt = salt
	cfg.EventPool = pool
	s := NewSystem(cfg, sim.DeriveSeed(seed, streamSnapshot), SystemOptions{
		RTCHz:            2048,
		RCIMPeriod:       sim.Millisecond,
		WithGPU:          true,
		Loads:            []string{LoadStressKernel, LoadScpFlood, LoadDiskNoise, LoadX11Perf, LoadTTCPNet},
		BroadcastTraffic: true,
	})
	s.Start()
	if ref == RefShielded {
		if err := s.ShieldCPU(cfg.NumCPUs() - 1); err != nil {
			return nil, err
		}
	}
	if boot {
		s.K.Eng.Run(sim.Time(refBootHorizon))
	}
	return s, nil
}

// BootImage is BootReference plus the snapshot: the post-boot image of
// the reference machine. This is the shared image warm-started sweeps
// and the two-stage CI soak restore from.
func BootImage(ref ReferenceMachine, seed uint64) ([]byte, error) {
	return bootImage(ref, seed, nil)
}

// bootImage is BootImage on an engine drawing nodes from pool (nil = a
// private pool).
func bootImage(ref ReferenceMachine, seed uint64, pool *sim.EventPool) ([]byte, error) {
	s, err := buildReference(ref, seed, 0, pool, true)
	if err != nil {
		return nil, err
	}
	return s.K.Snapshot()
}

// resumeHorizon is how far past the checkpoint the resume-equivalence
// probes run both sides.
const resumeHorizon = 30 * sim.Millisecond

// resumeEquivalent checks the tentpole oracle on a reference machine:
// run to T, snapshot, continue to T2 and snapshot again (the
// uninterrupted result); then rebuild a fresh machine, restore the T
// image into it, continue it to T2 and snapshot. The two T2 images must
// be byte-identical.
func resumeEquivalent(ref ReferenceMachine, seed uint64) (string, error) {
	a, err := BootReference(ref, seed, 0)
	if err != nil {
		return "", err
	}
	imgT, err := a.K.Snapshot()
	if err != nil {
		return "", fmt.Errorf("snapshot at T: %w", err)
	}
	a.K.Eng.Run(a.K.Now().Add(resumeHorizon))
	imgA, err := a.K.Snapshot()
	if err != nil {
		return "", fmt.Errorf("snapshot at T2: %w", err)
	}

	b, err := BootReference(ref, seed, 0)
	if err != nil {
		return "", err
	}
	if err := b.K.RestoreImage(imgT); err != nil {
		return "", fmt.Errorf("restore: %w", err)
	}
	b.K.Eng.Run(b.K.Now().Add(resumeHorizon))
	imgB, err := b.K.Snapshot()
	if err != nil {
		return "", fmt.Errorf("snapshot after resume: %w", err)
	}
	if !bytes.Equal(imgA, imgB) {
		return "", fmt.Errorf("resumed run diverged: uninterrupted %s vs resumed %s",
			HashBytes(imgA), HashBytes(imgB))
	}
	return HashBytes(imgA), nil
}

// warmContinuationHash restores the shared post-boot image with a warm
// tie-break salt and runs the continuation window; the returned hash
// fingerprints the continued machine. The same (image, salt) pair always
// continues to the identical bytes — that is the warm-start
// reproducibility contract — while distinct salts explore different
// same-instant dispatch orders (the point of warm-started placement
// sweeps). The continued machine must pass every state invariant.
func warmContinuationHash(ref ReferenceMachine, seed uint64, img []byte, salt uint64) (string, error) {
	s, err := BootReference(ref, seed, 0)
	if err != nil {
		return "", err
	}
	if err := s.K.RestoreImageWarm(img, salt); err != nil {
		return "", fmt.Errorf("warm restore (salt %#x): %w", salt, err)
	}
	s.K.Eng.Run(s.K.Now().Add(resumeHorizon))
	if err := s.K.CheckInvariants(); err != nil {
		return "", fmt.Errorf("warm continuation (salt %#x): %w", salt, err)
	}
	img2, err := s.K.Snapshot()
	if err != nil {
		return "", err
	}
	return HashBytes(img2), nil
}

// SnapshotChecks runs the snapshot claim set: resume equivalence, golden
// image-hash stability under event-pool reuse, and warm-start salt
// invariance. Appended to the reprocheck claim list.
func SnapshotChecks(seed uint64) []CheckResult {
	var out []CheckResult
	add := func(id, claim string, pass bool, detail string, args ...interface{}) {
		out = append(out, CheckResult{ID: id, Claim: claim, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}

	for _, ref := range []ReferenceMachine{RefStock, RefShielded} {
		// Resume equivalence: the resumed run reaches the uninterrupted
		// run's T2 image byte for byte.
		t2, firstErr := resumeEquivalent(ref, seed)
		detail := fmt.Sprintf("T2 hash %s", t2)
		if firstErr != nil {
			detail = firstErr.Error()
		}
		add("snap-resume-"+string(ref),
			fmt.Sprintf("snapshot/restore resumes the %s reference machine byte-identically", ref),
			firstErr == nil, "%s", detail)

		// Golden post-boot image hash: identical whether the machine
		// boots on a fresh event pool or on one already warmed by a
		// previous boot — the per-worker pool reuse of runner and simd.
		// Node identity never serialises.
		pool := sim.NewEventPool()
		sharedImg, imgErr := bootImage(ref, seed, pool)
		var warmImg []byte
		if imgErr == nil {
			warmImg, imgErr = bootImage(ref, seed, pool)
		}
		reused := pool.Stats().Reuses
		detail = fmt.Sprintf("post-boot image %s on a fresh pool and %s on a warmed one (%d nodes reused)",
			HashBytes(sharedImg), HashBytes(warmImg), reused)
		if imgErr != nil {
			detail = imgErr.Error()
		}
		add("snap-golden-"+string(ref),
			fmt.Sprintf("the %s reference machine's post-boot snapshot is byte-identical on a fresh and a warmed event pool", ref),
			imgErr == nil && reused > 0 && bytes.Equal(sharedImg, warmImg), "%s", detail)

		// Warm start: restoring the shared image is reproducible — the
		// same (image, salt) pair continues to identical bytes, salt 0
		// continues exactly like the uninterrupted run, and every salted
		// continuation is a valid machine (invariants hold). Distinct
		// salts are allowed — meant — to realise different same-instant
		// dispatch orders; that schedule diversity without re-booting is
		// what warm-started placement sweeps buy.
		if firstErr == nil && imgErr == nil {
			const salt = 0x9e3779b97f4a7c15
			h0, err0 := warmContinuationHash(ref, seed, sharedImg, 0)
			h1a, err1 := warmContinuationHash(ref, seed, sharedImg, salt)
			h1b, err2 := warmContinuationHash(ref, seed, sharedImg, salt)
			pass := err0 == nil && err1 == nil && err2 == nil &&
				h0 == t2 && h1a == h1b
			detail := fmt.Sprintf("salt 0 -> %s (= uninterrupted), salt %#x -> %s twice", h0, uint64(salt), h1a)
			for _, err := range []error{err0, err1, err2} {
				if err != nil {
					detail = err.Error()
					break
				}
			}
			add("snap-warm-"+string(ref),
				fmt.Sprintf("warm-starting the %s post-boot image is reproducible per salt and exact at salt 0", ref),
				pass, "%s", detail)
		}
	}
	return out
}
