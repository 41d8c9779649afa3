package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/kernel"
	"repro/internal/latency"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace/attrib"
)

// CheckResult is one verified claim from the paper.
type CheckResult struct {
	ID     string
	Claim  string
	Detail string
	Pass   bool
}

// CheckOptions selects the verification instrumentation RunChecksOpts
// arms on the machines it builds. The zero value runs plain checks.
type CheckOptions struct {
	// InvariantPeriod, when non-zero, arms the periodic machine-state
	// invariant sampler (kernel.Config.InvariantPeriod) on every
	// machine: a corrupt machine state panics at the first sampling
	// instant after it appears instead of surfacing as a wrong verdict.
	InvariantPeriod sim.Duration

	// Bounds, when non-nil, is a static worst-case bounds report from
	// `simlint -bounds` and enables the latbound-envelope claims: the
	// dynamic attributor's worst observed episode per cause must fit
	// under the static envelope composed for the same machine. The
	// caller loads the report; this package never reads files.
	Bounds *latency.Report
}

// RunChecks executes a conformance pass over the paper's quantitative
// claims at the given scale and seed. Each check runs scaled-down
// experiments and asserts the claim's *shape* (orderings and bounds), the
// same assertions the integration tests make, packaged for the CLI.
//
// The underlying experiment runs are independent replications, so they
// fan out across up to workers goroutines (<= 0 means GOMAXPROCS); the
// assertions are then evaluated in a fixed order, so the report is
// identical for any worker count.
func RunChecks(scale float64, seed uint64, workers int) []CheckResult {
	return RunChecksOpts(scale, seed, workers, CheckOptions{})
}

// RunChecksOpts is RunChecks with verification instrumentation.
func RunChecksOpts(scale float64, seed uint64, workers int, opts CheckOptions) []CheckResult {
	// --- phase 1: run every experiment the claims need, in parallel ---
	var jobs []func()
	det := func(cfg kernel.Config, shield bool) func() float64 {
		cfg.InvariantPeriod = opts.InvariantPeriod
		var out float64
		run := func() {
			d := DefaultDeterminism(cfg)
			d.Runs = scaleRuns(18, scale)
			d.LoopWork = sim.DurationOf(0.3)
			d.Shield = shield
			d.Seed = sim.DeriveSeed(seed, streamChecksDet)
			// The placement pool is the inner parallelism; the checks
			// already fan out here, one worker per experiment.
			d.Workers = 1
			out = RunDeterminism(d).Report.JitterPercent()
		}
		jobs = append(jobs, run)
		return func() float64 { return out }
	}
	rf := func(cfg kernel.Config, shield bool, mutate func(*RealfeelConfig)) func() ResponseResult {
		cfg.InvariantPeriod = opts.InvariantPeriod
		var out ResponseResult
		jobs = append(jobs, func() {
			r := DefaultRealfeel(cfg)
			r.Samples = scaleSamples(60_000, scale)
			r.Shield = shield
			r.Seed = sim.DeriveSeed(seed, streamChecksResp)
			if mutate != nil {
				mutate(&r)
			}
			out = RunRealfeel(r)
		})
		return func() ResponseResult { return out }
	}
	rc := func(forceBKL bool) func() ResponseResult {
		var out ResponseResult
		jobs = append(jobs, func() {
			kc := kernel.RedHawk14(2, 2.0)
			kc.InvariantPeriod = opts.InvariantPeriod
			c := DefaultRCIM(kc)
			c.Samples = scaleSamples(60_000, scale)
			c.Seed = sim.DeriveSeed(seed, streamChecksResp)
			c.ForceBKL = forceBKL
			out = RunRCIM(c)
		})
		return func() ResponseResult { return out }
	}

	att := func(kc kernel.Config, shield bool) func() attrib.Summary {
		kc.InvariantPeriod = opts.InvariantPeriod
		var out ResponseResult
		jobs = append(jobs, func() {
			c := DefaultRCIM(kc)
			c.Samples = scaleSamples(30_000, scale)
			c.Seed = sim.DeriveSeed(seed, streamChecksResp)
			c.Shield = shield
			c.Attribute = true
			out = RunRCIM(c)
		})
		return func() attrib.Summary { return out.Attribution }
	}

	j1 := det(kernel.StandardLinux24(2, 1.4, true), false)
	j2 := det(kernel.RedHawk14(2, 1.4), true)
	j3 := det(kernel.RedHawk14(2, 1.4), false)
	j4 := det(kernel.StandardLinux24(2, 1.4, false), false)
	fig5 := rf(kernel.StandardLinux24(2, 0.933, false), false, nil)
	fig6 := rf(kernel.RedHawk14(2, 0.933), true, nil)
	patched := rf(kernel.PatchedLinux24(2, 0.933), false, nil)
	future := rf(kernel.RedHawk14(2, 0.933), true, func(r *RealfeelConfig) { r.FixedAPI = true })
	fig7 := rc(false)
	bkl := rc(true)
	stockCfg := kernel.StandardLinux24(2, 2.0, false)
	shieldCfg := kernel.RedHawk14(2, 2.0)
	attStock := att(stockCfg, false)
	attShield := att(shieldCfg, true)

	runner.Do(workers, jobs...)

	// --- phase 2: evaluate the claims in paper order ---
	var out []CheckResult
	add := func(id, claim string, pass bool, detail string, args ...interface{}) {
		out = append(out, CheckResult{
			ID: id, Claim: claim, Pass: pass, Detail: fmt.Sprintf(detail, args...),
		})
	}

	// --- determinism ordering (§5, Figures 1-4) ---
	add("det-shield", "a shielded CPU has by far the least execution jitter (Fig 2)",
		j2() < j1() && j2() < j3() && j2() < j4() && j2() < 5,
		"shielded %.2f%% vs HT %.2f%% / redhawk %.2f%% / stock %.2f%%", j2(), j1(), j3(), j4())
	add("det-ht", "hyperthreading adds execution jitter (Fig 1 vs Fig 4)",
		j1() > j4(), "HT %.2f%% vs no-HT %.2f%%", j1(), j4())
	add("det-load", "interrupt load costs ≳10 percent on an unshielded CPU (Fig 3-4)",
		j3() > 5 && j4() > 5, "redhawk %.2f%%, stock %.2f%%", j3(), j4())

	// --- interrupt response (§6, Figures 5-7) ---
	add("resp-stock", "stock 2.4 worst-case response is tens of milliseconds (Fig 5)",
		fig5().Max > 5*sim.Millisecond, "max %v", fig5().Max)
	add("resp-shield", "a shielded RedHawk CPU guarantees sub-millisecond response (Fig 6, the title claim)",
		fig6().Max < sim.Millisecond, "max %v", fig6().Max)
	add("resp-patches", "patches without shielding land near a millisecond (Clark Williams [5])",
		patched().Max < 10*sim.Millisecond && patched().Max > fig6().Max,
		"patched max %v vs shielded %v", patched().Max, fig6().Max)
	add("resp-rcim", "RCIM on a shielded CPU stays under 30µs worst case (Fig 7)",
		fig7().Max < 30*sim.Microsecond, "min %v avg %v max %v", fig7().Min, fig7().Mean(), fig7().Max)
	add("resp-bkl", "routing the same ioctl through the BKL wrecks the guarantee (§6.3)",
		bkl().Max > 3*fig7().Max, "BKL max %v vs flag max %v", bkl().Max, fig7().Max)

	// --- mechanism checks ---
	add("resp-future", "a multithreaded RTC driver API removes the residual fs-lock tail (§7)",
		future().Max < fig6().Max && future().Max < 50*sim.Microsecond,
		"fixed API max %v vs read(2) max %v", future().Max, fig6().Max)

	// --- trace-derived latency attribution ---
	sumCauses := func(b [attrib.NumCauses]sim.Duration) sim.Duration {
		var s sim.Duration
		for _, d := range b {
			s += d
		}
		return s
	}
	removable := func(s attrib.Summary) sim.Duration {
		return s.Total[attrib.CauseSched] + s.Total[attrib.CauseSoftirq] + s.Total[attrib.CauseLock]
	}
	as, bs := attStock(), attShield()
	add("attrib-partition", "latency attribution partitions every sample exactly (no unexplained time)",
		sumCauses(as.Total) == as.TotalLatency && sumCauses(bs.Total) == bs.TotalLatency &&
			sumCauses(as.WorstBreakdown) == as.MaxLatency && sumCauses(bs.WorstBreakdown) == bs.MaxLatency &&
			as.LostRecords == 0 && bs.LostRecords == 0,
		"stock %v over %d samples, shielded %v over %d samples, lost %d/%d",
		as.TotalLatency, as.Samples, bs.TotalLatency, bs.Samples, as.LostRecords, bs.LostRecords)
	add("attrib-shield", "shielding removes the competing causes (sched, softirq, locks), not the handler itself",
		removable(bs) < removable(as)/10 &&
			bs.WorstBreakdown[attrib.CauseSched]+bs.WorstBreakdown[attrib.CauseSoftirq]+bs.WorstBreakdown[attrib.CauseLock] < bs.MaxLatency/2,
		"removable delay: stock %v vs shielded %v; shielded worst %v", removable(as), removable(bs), bs.MaxLatency)

	// --- static latency envelope vs dynamic attribution (latbound) ---
	// Cross-check simlint's abstract-interpretation bounds against the
	// dynamic attributor: per covered cause, the worst single episode any
	// sample observed must fit under the static bound composed for the
	// same machine. An unbounded static term (stock holds the BKL across
	// an uncapped filesystem call, by audited exception) passes trivially
	// — the static layer makes no claim there, and says so.
	if opts.Bounds != nil {
		boundStr := func(v float64) string {
			if math.IsInf(v, 1) {
				return "unbounded"
			}
			return sim.Duration(v).String()
		}
		causes := []attrib.Cause{attrib.CauseIRQOff, attrib.CauseSoftirq, attrib.CauseLock}
		envelope := func(id, claim string, cfg kernel.Config, s attrib.Summary) latency.Envelope {
			env, missing := latency.Compose(opts.Bounds, latency.FromConfig(&cfg))
			if len(missing) > 0 {
				add(id, claim, false, "bounds report lacks a finite bound for required regions: %s", strings.Join(missing, ", "))
				return env
			}
			pass := true
			parts := make([]string, 0, len(causes))
			for _, c := range causes {
				bound, _ := env.CauseBound(c.String())
				if float64(s.WorstEpisode[c]) > bound {
					pass = false
				}
				parts = append(parts, fmt.Sprintf("%s %v<=%s", c, s.WorstEpisode[c], boundStr(bound)))
			}
			add(id, claim, pass, "%s", strings.Join(parts, ", "))
			return env
		}
		envelope("latbound-stock", "stock worst episodes fit the static per-cause bounds (latbound envelope)",
			stockCfg, as)
		env := envelope("latbound-shield", "shielded worst episodes fit the static per-cause bounds (latbound envelope)",
			shieldCfg, bs)
		add("latbound-resp", "the shielded worst response fits the static shielded-path bound (the checked <30µs analogue)",
			float64(bs.MaxLatency) <= env.ShieldedResponseNS,
			"observed %v <= static %s", bs.MaxLatency, boundStr(env.ShieldedResponseNS))
	}

	// --- checkpoint/restore (snapshot) claims ---
	// Resume equivalence, pool-reuse-invariant golden image hashes,
	// warm-start reproducibility. Cheap (tens of milliseconds of virtual
	// time per machine), and always on: the snapshot subsystem
	// underwrites warm-started sweeps and the divergence bisector, so a
	// broken codec should fail the same pass that certifies the figures.
	out = append(out, SnapshotChecks(seed)...)

	return out
}
