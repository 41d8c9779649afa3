package core

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/kernel"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Seed streams. Every experiment derives its working seed from the
// user-visible base seed as sim.DeriveSeed(seed, stream), one stream per
// experiment, so no two experiments ever replay the same event sequence
// and — unlike the old additive salts (seed + k*7919) — no pair of
// nearby base seeds can alias each other's streams.
const (
	streamFig1 uint64 = iota + 1
	streamFig2
	streamFig3
	streamFig4
	streamFig5
	streamFig6
	streamFig7
	streamSpinlockBH
	streamFutureRTC
	streamBKL
	streamShieldModes
	streamPatches
	streamPosixTimers
	streamHT
	streamChecksDet
	streamChecksResp
	streamAttrib
	streamTraceCap
	streamSnapshot
	streamBisect
)

// figureReplications is the fixed replication count the sharded figures
// (fig5–fig7) run with. It is a constant, never derived from the
// machine: the replication count shapes the result (each replication is
// its own seeded system), while the worker count must not.
const figureReplications = 8

// figure is one CSV-bearing paper figure. Its entry in the figures
// table is the one source of truth for the figure's registry entry,
// report, CSV series, simd scenario encoding and admission cost.
type figure struct {
	id, title, paper string
	resolve          figureResolver
}

// figureResolver builds figure id's canonical configuration at (scale,
// seed, workers).
type figureResolver func(id string, scale float64, seed uint64, workers int) figureRun

// figureRun is one resolved figure.
type figureRun struct {
	// canonical renders the configuration, Workers zeroed and
	// non-semantic kernel knobs erased: the scenario encoding after its
	// version prefix, formatted only when a scenario asks for it.
	canonical func() string
	// costMS is the a-priori cost in virtual milliseconds, an estimate
	// from the configuration (Scenario.CostVirtualMS).
	costMS int64
	// run executes the figure with every machine under tie-break salt
	// (kernel.Config.TiebreakSalt; 0 is plain FIFO) and returns the raw
	// result struct (its type depends on the figure family), the
	// rendered report and the CSV series. The determinism contract
	// requires the CSV to be bit-identical for every salt;
	// RunPerturbFigures (cmd/reprocheck -perturb) checks it.
	run func(salt uint64) (result any, report, csv string)
}

// figures is every CSV-bearing figure, in paper order.
var figures = []figure{
	{"fig1", "Execution determinism, kernel.org 2.4.18 (hyperthreading on)",
		"ideal 1.150770s, max 1.451925s, jitter 0.301155s (26.17%)",
		determinismFigure(streamFig1, kernel.StandardLinux24(2, 1.4, true), false)},
	{"fig2", "Execution determinism, RedHawk 1.4, shielded CPU",
		"ideal 1.150814s, max 1.172235s, jitter 0.021421s (1.87%)",
		determinismFigure(streamFig2, kernel.RedHawk14(2, 1.4), true)},
	{"fig3", "Execution determinism, RedHawk 1.4, unshielded CPU",
		"ideal 1.150785s, max 1.321399s, jitter 0.170614s (14.82%)",
		determinismFigure(streamFig3, kernel.RedHawk14(2, 1.4), false)},
	{"fig4", "Execution determinism, kernel.org 2.4.18 (no hyperthreading)",
		"ideal 1.150795s, max 1.302139s, jitter 0.151344s (13.15%)",
		determinismFigure(streamFig4, kernel.StandardLinux24(2, 1.4, false), false)},
	{"fig5", "Interrupt response (realfeel), kernel.org 2.4.18 + stress-kernel",
		"max 92.3ms; 99.140% < 0.1ms, 99.843% < 1ms, 100% < 100ms",
		realfeelFigure(streamFig5, kernel.StandardLinux24(2, 0.933, false), false,
			func(r ResponseResult) string { return r.Chart(PaperThresholdsFig5(), sim.Millisecond, "ms") })},
	{"fig6", "Interrupt response (realfeel), RedHawk 1.4, shielded CPU + stress-kernel",
		"max 0.565ms; 8 samples 0.1–0.2ms, 5, 2, 1, 1 in higher bands (of 60M)",
		realfeelFigure(streamFig6, kernel.RedHawk14(2, 0.933), true,
			func(r ResponseResult) string { return r.Chart(PaperThresholdsFig6(), sim.Microsecond, "µs") })},
	{"fig7", "Interrupt response (RCIM), RedHawk 1.4, shielded CPU + stress-kernel + x11perf + ttcp",
		"min 11µs, max 27µs, avg 11.3µs — all < 30µs",
		rcimFigure(kernel.RedHawk14(2, 2.0))},
	{"attrib-causes", "Causes of delay: trace-derived latency attribution, stock vs shielded",
		"§2: program execution, interrupts, bottom halves and locks each delay response; shielding removes them",
		attribFigure(kernel.StandardLinux24(2, 2.0, false), kernel.RedHawk14(2, 2.0))},
}

// FigureIDs lists the CSV-bearing figures in paper order: fig1–fig7,
// then attrib-causes. They are the ids FigureCSV, RunFigure and figure
// scenarios accept.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// resolveFigure looks id up in the figures table and resolves it.
func resolveFigure(id string, scale float64, seed uint64, workers int) (figureRun, error) {
	for _, f := range figures {
		if f.id == id {
			return f.resolve(id, scale, seed, workers), nil
		}
	}
	return figureRun{}, fmt.Errorf("core: no CSV series for %q (figures only)", id)
}

// determinismFigure resolves a §5.1 panel (fig1–fig4): the sine loop on
// machine, on a shielded CPU when shield is set.
func determinismFigure(stream uint64, machine kernel.Config, shield bool) figureResolver {
	kt := newKernelText(machine)
	return func(id string, scale float64, seed uint64, workers int) figureRun {
		cfg := DefaultDeterminism(machine)
		cfg.Shield = shield
		cfg.Runs = scaleRuns(cfg.Runs, scale)
		cfg.Seed = sim.DeriveSeed(seed, stream)
		cfg.Workers = workers
		// Six placements of max(Runs/6, 3) timed loops plus the
		// three-run unloaded calibration pass (see RunDeterminism).
		// Each pass stops at its last timed loop, so this tracks the
		// simulated time to within loop jitter.
		loops := int64(6*max(cfg.Runs/6, 3) + 3)
		return figureRun{
			canonical: func() string {
				c := cfg
				c.Workers = 0
				return "det|" + id + "|" + configText(c, kt.of(c.Kernel))
			},
			costMS: loops * int64(cfg.LoopWork/sim.Millisecond),
			run: func(salt uint64) (any, string, string) {
				c := cfg
				c.Kernel.TiebreakSalt = salt
				r := RunDeterminism(c)
				// The paper plots the variance from ideal in milliseconds.
				return r, r.Render(), histCSV(r.Hist, "ms", 1e6)
			},
		}
	}
}

// realfeelFigure resolves a §6.1 panel (fig5, fig6): realfeel on
// machine, on a shielded CPU when shield is set, reported by chart.
func realfeelFigure(stream uint64, machine kernel.Config, shield bool, chart func(ResponseResult) string) figureResolver {
	kt := newKernelText(machine)
	return func(id string, scale float64, seed uint64, workers int) figureRun {
		cfg := DefaultRealfeel(machine)
		cfg.Shield = shield
		cfg.Samples = scaleSamples(cfg.Samples, scale)
		cfg.Seed = sim.DeriveSeed(seed, stream)
		cfg.Replications = figureReplications
		cfg.Workers = workers
		return figureRun{
			canonical: func() string {
				c := cfg
				c.Workers = 0
				return "rf|" + id + "|" + configText(c, kt.of(c.Kernel))
			},
			// One sample per RTC period (1000/Hz ms).
			costMS: int64(cfg.Samples) * 1000 / int64(cfg.Hz),
			run: func(salt uint64) (any, string, string) {
				c := cfg
				c.Kernel.TiebreakSalt = salt
				r := RunRealfeel(c)
				return r, chart(r), histCSV(r.Hist, "ms", 1e6)
			},
		}
	}
}

// rcimFigure resolves fig7: the §6.3 RCIM test on a shielded CPU of
// machine.
func rcimFigure(machine kernel.Config) figureResolver {
	kt := newKernelText(machine)
	return func(id string, scale float64, seed uint64, workers int) figureRun {
		cfg := figureRCIM(machine, 400_000, scale, sim.DeriveSeed(seed, streamFig7), workers)
		return figureRun{
			canonical: func() string { return "rcim|" + id + "|" + rcimText(cfg, kt) },
			costMS:    rcimCostMS(cfg),
			run: func(salt uint64) (any, string, string) {
				c := cfg
				c.Kernel.TiebreakSalt = salt
				r := RunRCIM(c)
				// Figure 7 is plotted in microseconds.
				return r, r.Name + "\n" + r.Legend(PaperThresholdsFig7()), histCSV(r.Hist, "us", float64(sim.Microsecond))
			},
		}
	}
}

// attribFigure resolves the attribution figure: the RCIM response test
// on the stock machine, unshielded, and on a shielded CPU of the
// shielded one, with every sample's latency charged to a cause from the
// trace.
func attribFigure(stockMachine, shieldedMachine kernel.Config) figureResolver {
	stockText, shieldedText := newKernelText(stockMachine), newKernelText(shieldedMachine)
	return func(id string, scale float64, seed uint64, workers int) figureRun {
		base := sim.DeriveSeed(seed, streamAttrib)
		stock := figureRCIM(stockMachine, 100_000, scale, sim.DeriveSeed(base, 1), workers)
		stock.Shield = false
		stock.Attribute = true
		shielded := figureRCIM(shieldedMachine, 100_000, scale, sim.DeriveSeed(base, 2), workers)
		shielded.Attribute = true
		return figureRun{
			canonical: func() string {
				return "attrib|" + id + "|stock=" + rcimText(stock, stockText) + "|shielded=" + rcimText(shielded, shieldedText)
			},
			costMS: rcimCostMS(stock) + rcimCostMS(shielded),
			run: func(salt uint64) (any, string, string) {
				s, sh := stock, shielded
				s.Kernel.TiebreakSalt, sh.Kernel.TiebreakSalt = salt, salt
				var r AttributionResult
				runner.Do(workers,
					func() { r.Stock = RunRCIM(s) },
					func() { r.Shielded = RunRCIM(sh) },
				)
				return r, r.Render(), attribCSV(r)
			},
		}
	}
}

// figureRCIM is the RCIM configuration a figure runs on machine: samples
// scaled and sharded into figureReplications.
func figureRCIM(machine kernel.Config, samples int, scale float64, seed uint64, workers int) RCIMConfig {
	cfg := DefaultRCIM(machine)
	cfg.Samples = scaleSamples(samples, scale)
	cfg.Seed = seed
	cfg.Replications = figureReplications
	cfg.Workers = workers
	return cfg
}

// rcimText is cfg as a scenario encoding renders it, Workers zeroed.
func rcimText(cfg RCIMConfig, kt kernelText) string {
	cfg.Workers = 0
	return configText(cfg, kt.of(cfg.Kernel))
}

// canonicalKernelText renders a machine's canonical kernel config as
// scenario encodings embed it.
func canonicalKernelText(machine kernel.Config) string {
	return fmt.Sprintf("%+v", CanonicalKernelConfig(machine))
}

// kernelText is a figure machine's canonical config with its text,
// rendered once when the figures table is built, the way refConfigText
// is for the reference machines.
type kernelText struct {
	cfg  kernel.Config
	text string
}

func newKernelText(machine kernel.Config) kernelText {
	return kernelText{CanonicalKernelConfig(machine), canonicalKernelText(machine)}
}

// of returns the text of cfg's canonical config: the stored text when
// cfg is the machine it was rendered from, which one struct compare
// decides, else a fresh rendering, so a resolver that adjusts its
// kernel can never be encoded with a stale text.
func (k kernelText) of(cfg kernel.Config) string {
	if CanonicalKernelConfig(cfg) == k.cfg {
		return k.text
	}
	return canonicalKernelText(cfg)
}

// configText renders cfg, a figure config struct whose first field is
// its Kernel, byte for byte as fmt's %+v does, with kernelText standing
// for the Kernel field: only the scalar fields after it are formatted.
func configText(cfg any, kernelText string) string {
	v := reflect.ValueOf(cfg)
	t := v.Type()
	var b strings.Builder
	b.Grow(len(kernelText) + 256)
	b.WriteString("{Kernel:")
	b.WriteString(kernelText)
	for i := 1; i < t.NumField(); i++ {
		fmt.Fprintf(&b, " %s:%+v", t.Field(i).Name, v.Field(i).Interface())
	}
	b.WriteByte('}')
	return b.String()
}

// rcimCostMS is one RCIM period per sample.
func rcimCostMS(cfg RCIMConfig) int64 {
	return int64(cfg.Samples) * int64(cfg.Period/sim.Millisecond)
}
