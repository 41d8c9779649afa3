// Command reprocheck runs a conformance pass over the paper's
// quantitative claims: scaled-down versions of every experiment, with the
// paper-shape assertions (orderings, bounds, crossovers) evaluated and
// reported PASS/FAIL. Exit status is non-zero if any claim fails.
//
// Usage:
//
//	reprocheck [-scale 1.0] [-seed 1] [-parallel N] [-perturb N] [-checkinv]
//	           [-bounds lint/bounds.json] [-bisect]
//
// -parallel caps the worker pool the independent experiment runs fan
// out on (0 = all cores); it never changes the verdicts, only the
// wall-clock time of the pass.
//
// -perturb N additionally re-runs every figure under N seeded
// permutations of same-timestamp event tie-breaks
// (sim.Engine.PerturbTiebreaks) and fails if any figure's data series
// diverges from the FIFO baseline — a tie-break race: a published
// number that depends on the arbitrary dispatch order of simultaneous
// events rather than on the model.
//
// -bounds takes the JSON report from `simlint -bounds` and adds the
// latbound-envelope claims: the dynamic attributor's worst observed
// episode per cause, and the shielded worst response, must fit under
// the static worst-case envelope composed for the same machine.
//
// -bisect additionally demonstrates the time-travel divergence
// bisector: it records replicas with periodic auto-snapshots, rewinds
// to the last agreeing checkpoint on divergence, and replays in
// lockstep to the exact first divergent event. The injected-race
// fixture must be pinpointed at its collision instant, and the clean
// fixture and the shielded reference machine must show no divergence.
//
// -checkinv arms a periodic machine-state invariant sampler
// (kernel.CheckInvariants) on every machine the checks build, so state
// corruption panics at the first sampling instant after it appears
// instead of surfacing as a wrong verdict at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/latency"
	"repro/internal/sim"
)

func main() {
	scale := flag.Float64("scale", 1.0, "sample-count scale factor")
	seed := flag.Uint64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = all cores); never affects results, only wall-clock time")
	perturb := flag.Int("perturb", 0, "re-run every figure under N tie-break perturbations and fail on divergence (0 = off)")
	bisect := flag.Bool("bisect", false, "demonstrate time-travel divergence bisection on the built-in race fixtures and the shielded reference machine")
	checkinv := flag.Bool("checkinv", false, "periodically sample kernel.CheckInvariants on every machine (panic on corruption)")
	bounds := flag.String("bounds", "", "static bounds report from 'simlint -bounds' to cross-check against dynamic attribution (empty = skip)")
	flag.Parse()

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "reprocheck: -parallel must be >= 0 (0 = all cores), got %d\n", *parallel)
		flag.Usage()
		os.Exit(2)
	}
	if !(*scale > 0) { // also rejects NaN
		fmt.Fprintf(os.Stderr, "reprocheck: -scale must be > 0, got %v\n", *scale)
		flag.Usage()
		os.Exit(2)
	}
	if *perturb < 0 {
		fmt.Fprintf(os.Stderr, "reprocheck: -perturb must be >= 0, got %d\n", *perturb)
		flag.Usage()
		os.Exit(2)
	}

	var opts core.CheckOptions
	if *checkinv {
		// 1 ms of virtual time between samples: dense enough to pin a
		// corruption near its cause, cheap enough to leave run time
		// dominated by the experiments themselves.
		opts.InvariantPeriod = sim.Millisecond
	}
	if *bounds != "" {
		data, err := os.ReadFile(*bounds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reprocheck: -bounds: %v\n", err)
			os.Exit(2)
		}
		var report latency.Report
		if err := json.Unmarshal(data, &report); err != nil {
			fmt.Fprintf(os.Stderr, "reprocheck: -bounds %s: %v\n", *bounds, err)
			os.Exit(2)
		}
		opts.Bounds = &report
	}

	start := time.Now()
	results := core.RunChecksOpts(*scale, *seed, *parallel, opts)
	failed := 0
	fmt.Println("reproduction conformance checks (Brosky & Rotolo, IPPS 2003):")
	fmt.Println()
	for _, r := range results {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Printf("[%s] %-13s %s\n", status, r.ID, r.Claim)
		fmt.Printf("       %-13s %s\n", "", r.Detail)
	}
	fmt.Printf("\n%d/%d claims hold (%.1fs)\n", len(results)-failed, len(results), time.Since(start).Seconds())

	if *perturb > 0 {
		pstart := time.Now()
		fmt.Printf("\ntie-break perturbation sweep (%d salts per figure):\n\n", *perturb)
		for _, fp := range core.RunPerturbFigures(*scale, *seed, *parallel, *perturb) {
			status := "PASS"
			if !fp.Report.OK() {
				status = "FAIL"
				failed++
			}
			fmt.Printf("[%s] %-13s %s\n", status, fp.ID, fp.Report)
		}
		fmt.Printf("\nperturbation sweep done (%.1fs)\n", time.Since(pstart).Seconds())
	}

	if *bisect {
		bstart := time.Now()
		fmt.Println("\ntime-travel divergence bisection:")
		fmt.Println()
		for _, d := range core.RunBisectDemo(*seed) {
			status := "PASS"
			if !d.Pass {
				status = "FAIL"
				failed++
			}
			fmt.Printf("[%s] %-13s %s\n", status, d.Name, d.Detail)
		}
		fmt.Printf("\nbisection demo done (%.1fs)\n", time.Since(bstart).Seconds())
	}

	if failed > 0 {
		os.Exit(1)
	}
}
