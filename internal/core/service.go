package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// This file is the request→figure plumbing behind the simd service: a
// canonical, content-addressable encoding of "one scenario" (machine
// config + workload + seed + figure), and the entry points that run one
// scenario to its deterministic result bytes.
//
// The cache-key soundness argument (DESIGN.md §11) rests on the repo's
// standing determinism claims: a figure's bytes are a pure function of
// (canonical config, seed, figure) — bit-identical across worker
// counts, event-pool reuse, tie-break salts and processes, which is
// exactly what the golden-hash, perturbation and snapshot CI jobs pin. Every knob that can never
// change results is therefore erased from the canonical encoding, so
// requests that differ only in such a knob share one cache entry.

// CanonicalKernelConfig returns cfg with every non-semantic knob
// cleared: the event pool, tie-break salt and invariant sampler can
// never change simulation results (the differential oracles prove it),
// so they must not change a scenario's content address either.
func CanonicalKernelConfig(cfg kernel.Config) kernel.Config {
	cfg.EventPool = nil
	cfg.TiebreakSalt = 0
	cfg.InvariantPeriod = 0
	return cfg
}

// refConfigText is each reference machine's canonical kernel config
// rendered as the "cfg=" text of its scenario and boot-image keys. The
// configs are constants of the reference machines, so the text is
// rendered once, here, instead of by reflection on every request.
var refConfigText = func() map[ReferenceMachine]string {
	text := map[ReferenceMachine]string{}
	for _, ref := range []ReferenceMachine{RefStock, RefShielded} {
		cfg, err := refKernelConfig(ref)
		if err != nil {
			panic(err)
		}
		text[ref] = canonicalKernelText(cfg)
	}
	return text
}()

// scenarioEncodingVersion prefixes every canonical scenario string.
// Bump it when the encoding itself (not the model) changes shape, so
// stale on-disk cache entries miss instead of colliding.
const scenarioEncodingVersion = "simd/v2"

// ScenarioKind separates the two request families the service runs.
type ScenarioKind int

const (
	// KindFigure is a paper figure: the result bytes are the figure's
	// canonical CSV data series (FigureCSV), whose FNV-1a hash is the
	// same hash the reprocheck golden oracle pins.
	KindFigure ScenarioKind = iota
	// KindContinuation is a reference-machine continuation: boot (or
	// warm-start from a cached post-boot image), run RunFor further
	// virtual time, and report the final state hash. Cold and warm runs
	// produce byte-identical results — the snap-resume claim shape.
	KindContinuation
)

// Continuation scenario ids (the "figure" namespace the API accepts,
// alongside fig1..fig7 and attrib-causes).
const (
	ScenarioRefStock    = "ref-stock"
	ScenarioRefShielded = "ref-shielded"
)

// defaultContinuationMS is the continuation window when a request
// leaves run_for_ms at 0.
const defaultContinuationMS = 20

// Scenario is one resolved, validated scenario request. Resolve it with
// ResolveScenario; the zero value is not meaningful.
type Scenario struct {
	Kind   ScenarioKind
	Figure string
	Scale  float64
	Seed   uint64
	// Ref and RunFor are set for continuations only.
	Ref    ReferenceMachine
	RunFor sim.Duration

	canonical string
	key       string // HashBytes(canonical), hashed once at resolve
	cost      int64  // virtual ms, figures only
}

// ServedScenarios lists every scenario id the service accepts, figure
// family first, in serving-catalogue order.
func ServedScenarios() []string {
	return append(FigureIDs(), ScenarioRefStock, ScenarioRefShielded)
}

// ResolveScenario validates one request and computes its canonical
// encoding. figure names either a CSV-bearing figure (fig1..fig7,
// attrib-causes; scale > 0 required, runForMS must be 0) or a reference
// continuation (ref-stock/ref-shielded; runForMS in virtual
// milliseconds, 0 = default, scale must be 0). Knobs that cannot
// change results (workers, pools, salts) are deliberately not
// part of a scenario.
func ResolveScenario(figure string, scale float64, seed uint64, runForMS int) (Scenario, error) {
	switch figure {
	case ScenarioRefStock, ScenarioRefShielded:
		if scale != 0 {
			return Scenario{}, fmt.Errorf("core: scenario %s: scale does not apply to continuations (got %v)", figure, scale)
		}
		if runForMS < 0 {
			return Scenario{}, fmt.Errorf("core: scenario %s: run_for_ms must be >= 0, got %d", figure, runForMS)
		}
		if runForMS == 0 {
			runForMS = defaultContinuationMS
		}
		ref := RefStock
		if figure == ScenarioRefShielded {
			ref = RefShielded
		}
		s := Scenario{
			Kind:   KindContinuation,
			Figure: figure,
			Seed:   seed,
			Ref:    ref,
			RunFor: sim.Duration(runForMS) * sim.Millisecond,
		}
		s.canonical = fmt.Sprintf("%s|cont|ref=%s|seed=%d|boot=%v|run_for=%v|cfg=%s",
			scenarioEncodingVersion, ref, seed, refBootHorizon, s.RunFor, refConfigText[ref])
		s.key = HashBytes([]byte(s.canonical))
		return s, nil
	}

	if runForMS != 0 {
		return Scenario{}, fmt.Errorf("core: scenario %s: run_for_ms only applies to ref-* continuations", figure)
	}
	if !(scale > 0) || math.IsInf(scale, 1) || scale > 10_000 {
		return Scenario{}, fmt.Errorf("core: scenario %s: scale must be in (0, 10000], got %v", figure, scale)
	}
	fr, err := resolveFigure(figure, scale, seed, 0)
	if err != nil {
		return Scenario{}, fmt.Errorf("core: unknown scenario %q (figures %s, or ref-stock/ref-shielded)", figure, strings.Join(FigureIDs(), ", "))
	}
	// The canonical encoding is the *resolved* configuration — derived
	// seed streams, floored sample counts, the full kernel config —
	// rendered with non-semantic knobs erased. Two requests that floor
	// to the same resolved run share one encoding.
	canonical := scenarioEncodingVersion + "|" + fr.canonical()
	return Scenario{Kind: KindFigure, Figure: figure, Scale: scale, Seed: seed,
		canonical: canonical, key: HashBytes([]byte(canonical)), cost: fr.costMS}, nil
}

// Canonical returns the scenario's canonical encoding — the preimage of
// its content address.
func (s Scenario) Canonical() string { return s.canonical }

// Key returns the scenario's content address: the FNV-1a hash of the
// canonical encoding, the same hash family the reprocheck golden oracle
// uses for figure bytes. It is hashed once, by ResolveScenario.
func (s Scenario) Key() string { return s.key }

// ImageKey returns the content address of the post-boot snapshot image
// a continuation warm-starts from. RunFor is deliberately excluded:
// every continuation window over the same (ref config, seed) shares one
// boot image — that sharing is the whole point of warm starts.
func (s Scenario) ImageKey() (string, error) {
	if s.Kind != KindContinuation {
		return "", fmt.Errorf("core: scenario %s has no boot image", s.Figure)
	}
	text, ok := refConfigText[s.Ref]
	if !ok {
		return "", fmt.Errorf("core: unknown reference machine %q", s.Ref)
	}
	pre := fmt.Sprintf("%s|img|ref=%s|seed=%d|boot=%v|cfg=%s",
		scenarioEncodingVersion, s.Ref, s.Seed, refBootHorizon, text)
	return HashBytes([]byte(pre)), nil
}

// CostVirtualMS estimates the scenario's cost in virtual milliseconds —
// the admission-budget unit. It is an a-priori estimate from the
// resolved configuration (boot horizon plus window for a continuation,
// the figures-table cost for a figure), not a measurement, so admission
// can refuse an oversized request before any work starts.
func (s Scenario) CostVirtualMS() int64 {
	if s.Kind == KindContinuation {
		return int64((refBootHorizon + s.RunFor) / sim.Millisecond)
	}
	return s.cost
}

// HashBytes is the FNV-1a fingerprint of arbitrary bytes in 16 hex
// digits: snapshot images, figure CSVs (the committed goldens), scenario
// keys and the service's result-integrity hash all use it.
func HashBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	var sum [8]byte
	var digits [16]byte
	hex.Encode(digits[:], h.Sum(sum[:0]))
	return string(digits[:])
}

// RunScenario executes one scenario cold and returns its deterministic
// result bytes: the figure's CSV series, or the continuation transcript.
// workers caps the replication fan-out of figure scenarios (never the
// bytes). This is the serial oracle the simd soak compares cached and
// concurrent serving against.
func RunScenario(s Scenario, workers int) ([]byte, error) {
	switch s.Kind {
	case KindFigure:
		csv, err := FigureCSV(s.Figure, s.Scale, s.Seed, workers)
		if err != nil {
			return nil, err
		}
		return []byte(csv), nil
	case KindContinuation:
		out, _, err := RunContinuationCold(s, nil)
		return out, err
	default:
		return nil, fmt.Errorf("core: unknown scenario kind %d", s.Kind)
	}
}

// continuationResult renders the continuation transcript. Everything in
// it is virtual-time state, so cold and warm runs must produce the same
// bytes; the wall path taken (boot replay vs image restore) is
// deliberately not part of the result.
func continuationResult(s Scenario, sys *System) ([]byte, error) {
	if err := sys.K.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: continuation %s: %w", s.Figure, err)
	}
	img, err := sys.K.Snapshot()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "scenario=%s seed=%d run_for=%v\n", s.Figure, s.Seed, s.RunFor)
	fmt.Fprintf(&b, "t=%v hash=%s bytes=%d\n", sys.K.Now(), HashBytes(img), len(img))
	return b.Bytes(), nil
}

// RunContinuationCold boots the reference machine (the full boot-load
// replay), snapshots the post-boot instant, runs the continuation
// window, and returns (result bytes, post-boot image). The image is
// what a warm-start cache stores: every later continuation over the
// same (ref config, seed) can restore it instead of replaying boot.
func RunContinuationCold(s Scenario, pool *sim.EventPool) (result, bootImg []byte, err error) {
	if s.Kind != KindContinuation {
		return nil, nil, fmt.Errorf("core: scenario %s is not a continuation", s.Figure)
	}
	sys, err := buildReference(s.Ref, s.Seed, 0, pool, true)
	if err != nil {
		return nil, nil, err
	}
	bootImg, err = sys.K.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	sys.K.Eng.Run(sys.K.Now().Add(s.RunFor))
	result, err = continuationResult(s, sys)
	if err != nil {
		return nil, nil, err
	}
	return result, bootImg, nil
}

// RunContinuationWarm runs the continuation window from a cached
// post-boot image: construct the reference machine, restore the image
// into it (cold, salt 0 — exact resume), and run. The result bytes are
// byte-identical to RunContinuationCold's for the same scenario — the
// snap-resume reprocheck claims pin exactly this equivalence — which is
// what makes warm-starting a pure wall-clock optimisation the cache may
// apply freely.
func RunContinuationWarm(s Scenario, bootImg []byte, pool *sim.EventPool) ([]byte, error) {
	if s.Kind != KindContinuation {
		return nil, fmt.Errorf("core: scenario %s is not a continuation", s.Figure)
	}
	sys, err := BuildReference(s.Ref, s.Seed, pool)
	if err != nil {
		return nil, err
	}
	if err := sys.K.RestoreImage(bootImg); err != nil {
		return nil, fmt.Errorf("core: warm start %s: %w", s.Figure, err)
	}
	sys.K.Eng.Run(sys.K.Now().Add(s.RunFor))
	return continuationResult(s, sys)
}
