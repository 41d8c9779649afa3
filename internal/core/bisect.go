package core

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Time-travel divergence bisection. Two replicas of one scenario — the
// FIFO baseline and a tie-break-perturbed mutant — are recorded with
// periodic auto-snapshots; when their dispatch streams diverge, the
// bisector binary-searches the checkpointed prefix digests down to the
// last agreeing checkpoint, restores BOTH replicas there, and drives
// them forward in lockstep (sim.Engine.NextEventInfo) to the exact
// first divergent event. A divergence is a tie-break race: a behaviour
// that depends on the arbitrary dispatch order of simultaneous events
// rather than on the model.

// BisectReplica is one snapshotable scenario instance the bisector can
// record, checkpoint and rewind.
type BisectReplica interface {
	// Engine is the replica's event engine (dispatch stream + clock).
	Engine() *sim.Engine
	// Snapshot serialises the replica's full state.
	Snapshot() ([]byte, error)
	// Restore overwrites this replica's state from a snapshot image
	// taken from an identically-constructed replica.
	Restore(img []byte) error
}

// machineReplica adapts a kernel machine to the bisector.
type machineReplica struct{ k *kernel.Kernel }

func (r machineReplica) Engine() *sim.Engine       { return r.k.Eng }
func (r machineReplica) Snapshot() ([]byte, error) { return r.k.Snapshot() }
func (r machineReplica) Restore(img []byte) error  { return r.k.RestoreImage(img) }

// MachineReplica wraps a started kernel machine for RunBisect.
func MachineReplica(k *kernel.Kernel) BisectReplica { return machineReplica{k} }

// stepID identifies one dispatched event: the (At, seq) dispatch
// identity plus its registered kind name.
type stepID struct {
	At   sim.Time
	Seq  uint64
	Kind string
}

func (s stepID) String() string {
	return fmt.Sprintf("%s seq=%d @ %v", s.Kind, s.Seq, s.At)
}

// bisectRecording is one replica's recorded run: the dispatch stream,
// the periodic auto-snapshots, and the rolling prefix digest at every
// checkpoint (digest of all steps before it).
type bisectRecording struct {
	steps   []stepID
	ckpts   map[int][]byte   // step index -> image taken before that step
	ckptAt  map[int]sim.Time // step index -> replica clock at the image
	digests map[int]uint64   // step index -> FNV-1a of steps[0:index]
	marks   []int            // checkpoint step indices, ascending
}

// record drives the replica event by event to the horizon, snapshotting
// every `every` dispatches.
func record(r BisectReplica, horizon sim.Time, every int) (bisectRecording, error) {
	rec := bisectRecording{
		ckpts:   make(map[int][]byte),
		ckptAt:  make(map[int]sim.Time),
		digests: make(map[int]uint64),
	}
	h := fnv.New64a()
	eng := r.Engine()
	for i := 0; ; i++ {
		at, seq, kind, ok := eng.NextEventInfo()
		if !ok || at > horizon {
			break
		}
		if i%every == 0 {
			img, err := r.Snapshot()
			if err != nil {
				return rec, fmt.Errorf("auto-snapshot at step %d (%v): %w", i, eng.Now(), err)
			}
			rec.ckpts[i] = img
			rec.ckptAt[i] = eng.Now()
			rec.digests[i] = h.Sum64()
			rec.marks = append(rec.marks, i)
		}
		rec.steps = append(rec.steps, stepID{at, seq, kind})
		fmt.Fprintf(h, "%d|%d|%s;", at, seq, kind)
		eng.Step()
	}
	return rec, nil
}

// BisectResult is the verdict of one bisection.
type BisectResult struct {
	// Diverged reports whether the two dispatch streams differ at all.
	Diverged bool
	// Steps is the baseline recording's dispatch count.
	Steps int
	// Step is the index of the first divergent dispatch; At its instant.
	Step int
	At   sim.Time
	// Baseline and Mutant describe the competing events at the
	// divergence ("kind seq @ time").
	Baseline, Mutant string
	// CheckpointStep/CheckpointAt locate the auto-snapshot the replay
	// rewound to; Replayed is how many events the lockstep replay
	// re-dispatched from there to reach the divergence.
	CheckpointStep int
	CheckpointAt   sim.Time
	Replayed       int
}

func (r BisectResult) String() string {
	if !r.Diverged {
		return fmt.Sprintf("no divergence across %d dispatches", r.Steps)
	}
	return fmt.Sprintf("first divergent event at step %d, t=%v: baseline [%s] vs mutant [%s] (rewound to checkpoint at step %d t=%v, replayed %d events)",
		r.Step, r.At, r.Baseline, r.Mutant, r.CheckpointStep, r.CheckpointAt, r.Replayed)
}

// RunBisect records build(0) (the FIFO baseline) and build(salt) (the
// perturbed mutant) to the horizon with an auto-snapshot every `every`
// dispatches, and — on divergence — bisects the checkpoint digests,
// restores fresh replicas at the last agreeing checkpoint and replays
// them in lockstep to the first divergent event.
func RunBisect(build func(salt uint64) (BisectReplica, error), salt uint64, horizon sim.Time, every int) (BisectResult, error) {
	if every < 1 {
		every = 64
	}
	base, err := build(0)
	if err != nil {
		return BisectResult{}, err
	}
	mut, err := build(salt)
	if err != nil {
		return BisectResult{}, err
	}
	recA, err := record(base, horizon, every)
	if err != nil {
		return BisectResult{}, fmt.Errorf("baseline: %w", err)
	}
	recB, err := record(mut, horizon, every)
	if err != nil {
		return BisectResult{}, fmt.Errorf("mutant (salt %#x): %w", salt, err)
	}

	// Quick verdict from the recorded streams: any divergence at all?
	n := len(recA.steps)
	if len(recB.steps) < n {
		n = len(recB.steps)
	}
	diverged := len(recA.steps) != len(recB.steps)
	for i := 0; i < n && !diverged; i++ {
		if recA.steps[i] != recB.steps[i] {
			diverged = true
		}
	}
	if !diverged {
		return BisectResult{Diverged: false, Steps: len(recA.steps)}, nil
	}

	// Binary-search the shared checkpoint marks for the last one whose
	// prefix digests agree. Prefix digests are monotone: equal up to the
	// divergence, unequal after, so the boundary is well defined.
	marks := recA.marks
	if len(recB.marks) < len(marks) {
		marks = recB.marks
	}
	lo, hi := 0, len(marks)-1 // invariant: digests agree at marks[lo]
	if recA.digests[marks[0]] != recB.digests[marks[0]] {
		return BisectResult{}, fmt.Errorf("bisect: streams differ before the first checkpoint (step 0) — scenarios are not identically constructed")
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if recA.digests[marks[mid]] == recB.digests[marks[mid]] {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	ckpt := marks[lo]

	// Time-travel: fresh replicas, rewound to the agreeing checkpoint,
	// stepped in lockstep until their next-event identities part ways.
	ra, err := build(0)
	if err != nil {
		return BisectResult{}, err
	}
	if err := ra.Restore(recA.ckpts[ckpt]); err != nil {
		return BisectResult{}, fmt.Errorf("baseline rewind to step %d: %w", ckpt, err)
	}
	rb, err := build(salt)
	if err != nil {
		return BisectResult{}, err
	}
	if err := rb.Restore(recB.ckpts[ckpt]); err != nil {
		return BisectResult{}, fmt.Errorf("mutant rewind to step %d: %w", ckpt, err)
	}
	for i := ckpt; ; i++ {
		atA, seqA, kindA, okA := ra.Engine().NextEventInfo()
		atB, seqB, kindB, okB := rb.Engine().NextEventInfo()
		doneA := !okA || atA > horizon
		doneB := !okB || atB > horizon
		if doneA || doneB {
			if doneA != doneB {
				side, other := stepID{atB, seqB, kindB}, "baseline"
				if doneB {
					side, other = stepID{atA, seqA, kindA}, "mutant"
				}
				return BisectResult{
					Diverged: true, Steps: len(recA.steps), Step: i, At: side.At,
					Baseline: "(end of run)", Mutant: side.String(),
					CheckpointStep: ckpt, CheckpointAt: recA.ckptAt[ckpt], Replayed: i - ckpt,
				}, fmt.Errorf("bisect: %s ran out of events at step %d while the other side still has [%s]", other, i, side)
			}
			return BisectResult{}, fmt.Errorf("bisect: replay from checkpoint %d reached the horizon without re-finding the divergence", ckpt)
		}
		if atA != atB || seqA != seqB || kindA != kindB {
			return BisectResult{
				Diverged:       true,
				Steps:          len(recA.steps),
				Step:           i,
				At:             atA,
				Baseline:       stepID{atA, seqA, kindA}.String(),
				Mutant:         stepID{atB, seqB, kindB}.String(),
				CheckpointStep: ckpt,
				CheckpointAt:   recA.ckptAt[ckpt],
				Replayed:       i - ckpt,
			}, nil
		}
		ra.Engine().Step()
		rb.Engine().Step()
	}
}

// --- the injected tie-break race fixture ---

// The fixture is two independent periodic tick chains, A and B, on a
// bare engine. In the racy variant B's first tick lands at exactly the
// same instant as one of A's ticks — an unpinned tie whose dispatch
// order a perturbation salt can flip; both handlers write a shared
// `last` word, so the race also leaks into state. In the clean variant
// B is offset by one nanosecond and the chains can never collide.
var (
	evFxA = sim.RegisterEventKind("core.fx-a")
	evFxB = sim.RegisterEventKind("core.fx-b")
)

const (
	fxTieAt   = 20 * sim.Millisecond // A ticks every 1ms, so 20ms is A's 20th tick
	fxGapA    = sim.Millisecond
	fxGapB    = 1009 * sim.Microsecond // co-prime with A's gap: no later collisions
	fxSection = "core.fx"
)

type fxReplica struct {
	eng  *sim.Engine
	tie  bool
	last uint64 // id of the most recently dispatched handler
	step uint64
}

func newFxReplica(tie bool, seed, salt uint64) *fxReplica {
	eng := sim.NewEngine(seed)
	if salt != 0 {
		eng.PerturbTiebreaks(salt) // queue still empty: legal
	}
	f := &fxReplica{eng: eng, tie: tie}
	f.arm(1, sim.Time(fxGapA))
	bStart := sim.Time(fxTieAt)
	if !tie {
		bStart++ // one nanosecond off: no tie, ever
	}
	f.arm(2, bStart)
	return f
}

func (f *fxReplica) arm(id uint64, at sim.Time) {
	kind := evFxA
	if id == 2 {
		kind = evFxB
	}
	f.eng.ScheduleTagged(at, kind.Tag(id, 0, 0), func() { f.fire(id) })
}

func (f *fxReplica) fire(id uint64) {
	f.step++
	f.last = id
	gap := fxGapA
	if id == 2 {
		gap = fxGapB
	}
	f.arm(id, f.eng.Now().Add(gap))
}

func (f *fxReplica) Engine() *sim.Engine { return f.eng }

func (f *fxReplica) Snapshot() ([]byte, error) {
	w := snapshot.NewWriter()
	if _, err := f.visit(w.Codec()); err != nil {
		return nil, err
	}
	return w.Finish(), nil
}

// visit codes the fixture image: the engine, then the replica's own
// section. Decoding returns the image's pending events.
func (f *fxReplica) visit(c *snapshot.Codec) ([]sim.RestoredEvent, error) {
	evs, err := f.eng.Visit(c)
	if err != nil {
		return nil, err
	}
	if !c.Section(fxSection) {
		return nil, c.Err()
	}
	tie := f.tie
	c.Bool(1, &tie)
	if tie != f.tie {
		c.Failf("core: fixture image tie=%v restored into tie=%v replica", tie, f.tie)
	}
	c.U64(2, &f.last)
	c.U64(3, &f.step)
	c.End()
	return evs, c.Err()
}

func (f *fxReplica) Restore(img []byte) error {
	r, err := snapshot.OpenReader(img)
	if err != nil {
		return err
	}
	evs, err := f.visit(r.Codec())
	if err != nil {
		return err
	}
	if !r.Exhausted() {
		return fmt.Errorf("core: fixture image has trailing sections")
	}
	for _, ev := range evs {
		var id uint64
		switch ev.Kind {
		case "core.fx-a":
			id = 1
		case "core.fx-b":
			id = 2
		default:
			return fmt.Errorf("core: fixture image has unknown event kind %q", ev.Kind)
		}
		handler := id
		if err := f.eng.RestoreEvent(ev, func() { f.fire(handler) }); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	snapshot.RegisterState(fxReplica{}, snapshot.Manifest{
		"eng":  "codec", // the sim.engine section of the fixture image
		"tie":  "codec", // validated construction flag
		"last": "codec",
		"step": "codec",
	})
}

// BisectDemo is one line of the reprocheck -bisect demonstration.
type BisectDemo struct {
	Name   string
	Pass   bool
	Detail string
}

// RunBisectDemo exercises the bisector against the loud-failure
// fixtures: the clean chains must show no divergence under any salt,
// and the injected tie must be pinpointed — first divergent event at
// exactly the collision instant, one side dispatching core.fx-a and the
// other core.fx-b. A third pass records the shielded reference machine
// against itself (same construction, no perturbation) and must find
// nothing, which holds the kernel-level checkpoint/record path to the
// same standard.
func RunBisectDemo(seed uint64) []BisectDemo {
	const horizon = sim.Time(30 * sim.Millisecond)
	const every = 8
	var out []BisectDemo

	fx := func(tie bool) func(salt uint64) (BisectReplica, error) {
		return func(salt uint64) (BisectReplica, error) {
			return newFxReplica(tie, sim.DeriveSeed(seed, streamBisect), salt), nil
		}
	}

	// A salt is only useful if it actually flips the tie; try a few.
	var raceRes BisectResult
	var raceErr error
	var raceSalt uint64
	for i := uint64(1); i <= 16; i++ {
		salt := sim.DeriveSeed(seed, 0xb15ec7+i)
		if salt == 0 {
			continue
		}
		raceRes, raceErr = RunBisect(fx(true), salt, horizon, every)
		raceSalt = salt
		if raceErr != nil || raceRes.Diverged {
			break
		}
	}
	racePinned := raceErr == nil && raceRes.Diverged &&
		raceRes.At == sim.Time(fxTieAt) &&
		((strings.HasPrefix(raceRes.Baseline, "core.fx-a") && strings.HasPrefix(raceRes.Mutant, "core.fx-b")) ||
			(strings.HasPrefix(raceRes.Baseline, "core.fx-b") && strings.HasPrefix(raceRes.Mutant, "core.fx-a")))
	detail := fmt.Sprintf("salt %#x: %v", raceSalt, raceRes)
	if raceErr != nil {
		detail = raceErr.Error()
	}
	out = append(out, BisectDemo{
		Name:   "bisect-race",
		Pass:   racePinned,
		Detail: detail,
	})

	cleanRes, cleanErr := RunBisect(fx(false), sim.DeriveSeed(seed, 0xc1ea4), horizon, every)
	detail = cleanRes.String()
	if cleanErr != nil {
		detail = cleanErr.Error()
	}
	out = append(out, BisectDemo{
		Name:   "bisect-clean",
		Pass:   cleanErr == nil && !cleanRes.Diverged,
		Detail: detail,
	})

	machRes, machErr := RunBisect(func(salt uint64) (BisectReplica, error) {
		s, err := BootReference(RefShielded, seed, salt)
		if err != nil {
			return nil, err
		}
		return MachineReplica(s.K), nil
	}, 0, sim.Time(refBootHorizon)+horizon, 256)
	detail = machRes.String()
	if machErr != nil {
		detail = machErr.Error()
	}
	out = append(out, BisectDemo{
		Name:   "bisect-machine",
		Pass:   machErr == nil && !machRes.Diverged,
		Detail: detail,
	})
	return out
}
