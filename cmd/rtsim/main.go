// Command rtsim regenerates the paper's figures on the simulated systems.
//
// Usage:
//
//	rtsim -list
//	rtsim -exp fig5 [-scale 1.0] [-seed 1] [-parallel N]
//	rtsim -exp all
//	rtsim -trace trace.json
//	rtsim -checkpoint boot.snap [-ref shielded] [-run-for 0.03]
//	rtsim -restore boot.snap [-run-for 0.03] [-warm-salt N]
//
// -checkpoint boots a reference machine under the full load mix, runs
// it -run-for extra virtual seconds and writes its snapshot image.
// -restore boots a fresh machine, restores the image (exactly, or
// warm-started under a tie-break salt with -warm-salt), runs -run-for
// virtual seconds, verifies every machine-state invariant and prints
// the final state hash — the same (image, salt) pair always prints the
// same hash, and salt 0 reproduces the uninterrupted run byte for
// byte, even across processes.
//
// -trace captures a shielded RCIM run with every typed tracepoint armed
// and writes it as a Chrome trace-event file (load it in
// ui.perfetto.dev) or, for non-.json paths, as dmesg-style text.
//
// -scale multiplies the default sample counts; the paper's full-size runs
// (60,000,000 samples, ~8 hours of virtual time) correspond to roughly
// -scale 150 on fig5/fig6/fig7.
//
// -parallel caps the replication worker pool (0 = all cores). Results
// are bit-identical for every worker count — replications are seeded
// independently via splitmix64 and merged in replication-index order —
// so -parallel only changes wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	list := flag.Bool("list", false, "list experiments")
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	scale := flag.Float64("scale", 1.0, "sample-count scale factor (1.0 = default, paper-size ≈ 150)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "worker goroutines per experiment (0 = all cores); never affects results, only wall-clock time")
	csv := flag.Bool("csv", false, "emit the figure's plotted data series as CSV ("+strings.Join(core.FigureIDs(), ", ")+")")
	sweep := flag.String("sweep", "", "run a sensitivity sweep by id, or 'list'")
	outdir := flag.String("outdir", "", "write every experiment report (and figure CSVs) into this directory")
	traceOut := flag.String("trace", "", "capture a shielded RCIM trace into this file (.json = Chrome trace-event format for Perfetto, anything else = dmesg-style text)")
	checkpoint := flag.String("checkpoint", "", "boot a reference machine (see -ref), run -run-for extra virtual seconds, and write its snapshot image to this file")
	restore := flag.String("restore", "", "boot a fresh reference machine, restore this snapshot image into it, run -run-for extra virtual seconds, verify invariants, and print the final state hash")
	ref := flag.String("ref", "shielded", "reference machine for -checkpoint/-restore: 'stock' or 'shielded'")
	runFor := flag.Float64("run-for", 0.03, "virtual seconds to run past the checkpoint/restore point for -checkpoint/-restore")
	warmSalt := flag.Uint64("warm-salt", 0, "warm-start tie-break salt for -restore (0 = exact cold resume); same (image, salt) always reproduces the same bytes")
	flag.Parse()

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "rtsim: -parallel must be >= 0 (0 = all cores), got %d\n", *parallel)
		flag.Usage()
		os.Exit(2)
	}
	if !(*scale > 0) { // also rejects NaN
		fmt.Fprintf(os.Stderr, "rtsim: -scale must be > 0, got %v\n", *scale)
		flag.Usage()
		os.Exit(2)
	}

	if *checkpoint != "" || *restore != "" {
		if *checkpoint != "" && *restore != "" {
			fmt.Fprintln(os.Stderr, "rtsim: -checkpoint and -restore are mutually exclusive")
			os.Exit(2)
		}
		if !(*runFor >= 0) {
			fmt.Fprintf(os.Stderr, "rtsim: -run-for must be >= 0, got %v\n", *runFor)
			os.Exit(2)
		}
		var err error
		if *checkpoint != "" {
			err = writeCheckpoint(*checkpoint, core.ReferenceMachine(*ref), *seed, *runFor)
		} else {
			err = restoreCheckpoint(*restore, core.ReferenceMachine(*ref), *seed, *runFor, *warmSalt)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtsim:", err)
			os.Exit(1)
		}
		return
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, *scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "rtsim:", err)
			os.Exit(1)
		}
		return
	}

	if *outdir != "" {
		if err := writeAll(*outdir, *scale, *seed, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "rtsim:", err)
			os.Exit(1)
		}
		return
	}

	if *sweep != "" {
		if *sweep == "list" {
			for _, s := range core.Sweeps() {
				fmt.Printf("  %-20s %s\n", s.ID, s.Title)
			}
			return
		}
		s, ok := core.SweepByID(*sweep)
		if !ok {
			fmt.Fprintf(os.Stderr, "rtsim: unknown sweep %q; try -sweep list\n", *sweep)
			os.Exit(2)
		}
		fmt.Print(core.RunSweep(s, *scale, *seed, *parallel))
		return
	}

	if *csv {
		if *exp == "" || *exp == "all" {
			fmt.Fprintf(os.Stderr, "rtsim: -csv needs a single figure id (%s)\n", strings.Join(core.FigureIDs(), ", "))
			os.Exit(2)
		}
		out, err := core.FigureCSV(*exp, *scale, *seed, *parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtsim:", err)
			os.Exit(2)
		}
		fmt.Print(out)
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range core.Experiments() {
			fmt.Printf("  %-24s %s\n", e.ID, e.Title)
			fmt.Printf("  %-24s paper: %s\n", "", e.Paper)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	run := func(e core.Experiment) {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    paper: %s\n", e.Paper)
		start := time.Now()
		out := e.Run(*scale, *seed, *parallel)
		fmt.Println(out)
		fmt.Printf("    (simulated in %.1fs wall time)\n\n", time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range core.Experiments() {
			run(e)
		}
		return
	}
	e, ok := core.ExperimentByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "rtsim: unknown experiment %q; try -list\n", *exp)
		os.Exit(2)
	}
	run(e)
}

// writeCheckpoint boots a reference machine under the full load mix,
// runs it runFor virtual seconds past the post-boot instant and writes
// its snapshot image. The image is the warm-start seed for -restore,
// the CI two-stage soak, and warm-started placement sweeps.
func writeCheckpoint(path string, ref core.ReferenceMachine, seed uint64, runFor float64) error {
	s, err := core.BootReference(ref, seed, 0)
	if err != nil {
		return err
	}
	if runFor > 0 {
		s.K.Eng.Run(s.K.Now().Add(sim.DurationOf(runFor)))
	}
	img, err := s.K.Snapshot()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, t=%v, hash %s)\n", path, len(img), s.K.Now(), core.HashBytes(img))
	return nil
}

// restoreCheckpoint boots a fresh reference machine, restores the image
// into it (warm-started when salt != 0), runs runFor virtual seconds,
// verifies every machine-state invariant and prints the final state
// hash. Restoring the same (image, salt) always prints the same hash;
// salt 0 continues exactly like the run the image was taken from.
func restoreCheckpoint(path string, ref core.ReferenceMachine, seed uint64, runFor float64, salt uint64) error {
	img, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := core.BootReference(ref, seed, 0)
	if err != nil {
		return err
	}
	if salt != 0 {
		err = s.K.RestoreImageWarm(img, salt)
	} else {
		err = s.K.RestoreImage(img)
	}
	if err != nil {
		return fmt.Errorf("restore %s: %w", path, err)
	}
	if runFor > 0 {
		s.K.Eng.Run(s.K.Now().Add(sim.DurationOf(runFor)))
	}
	if err := s.K.CheckInvariants(); err != nil {
		return fmt.Errorf("restored machine failed invariants: %w", err)
	}
	img2, err := s.K.Snapshot()
	if err != nil {
		return err
	}
	fmt.Printf("restored %s, ran to t=%v, final hash %s (invariants ok)\n", path, s.K.Now(), core.HashBytes(img2))
	return nil
}

// writeTrace captures a shielded RCIM run with all tracepoints armed
// and exports it: Chrome trace-event JSON (open in ui.perfetto.dev or
// chrome://tracing) for .json paths, dmesg-style text otherwise.
func writeTrace(path string, scale float64, seed uint64) error {
	buf := core.CaptureTrace(scale, seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = buf.WriteChromeTrace(f)
	} else {
		err = buf.WriteText(f)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d records, %d dropped)\n", path, buf.Len(), buf.Dropped())
	return f.Close()
}

// writeAll regenerates every experiment report, figure CSV series and
// sensitivity sweep into dir, one file each — the full evaluation as an
// artifact directory.
func writeAll(dir string, scale float64, seed uint64, parallel int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}
	for _, e := range core.Experiments() {
		fmt.Printf("running %s...\n", e.ID)
		header := fmt.Sprintf("%s\npaper: %s\n\n", e.Title, e.Paper)
		if !slices.Contains(core.FigureIDs(), e.ID) {
			if err := write(e.ID+".txt", header+e.Run(scale, seed, parallel)); err != nil {
				return err
			}
			continue
		}
		// A figure's report and CSV come from one run.
		report, csvData, err := core.RunFigure(e.ID, scale, seed, parallel)
		if err == nil {
			err = write(e.ID+".txt", header+report)
		}
		if err == nil {
			err = write(e.ID+".csv", csvData)
		}
		if err != nil {
			return err
		}
	}
	for _, s := range core.Sweeps() {
		fmt.Printf("running sweep %s...\n", s.ID)
		if err := write("sweep-"+s.ID+".txt", core.RunSweep(s, scale, seed, parallel)); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s\n", dir)
	return nil
}
