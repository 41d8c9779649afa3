// Command simlint is the determinism linter for this repository: a
// multichecker over the custom analyzers in internal/analysis that
// mechanically enforce the simulator's reproducibility contract
// (DESIGN.md, "Determinism rules").
//
// Standalone:
//
//	simlint ./...               # lint packages under the current module
//	simlint -list               # describe the analyzers
//	simlint ./internal/sim      # lint one package
//	simlint -format=sarif ./... # SARIF 2.1.0 on stdout (code scanning)
//
// As a go vet tool (per-package, build-cached):
//
//	go build -o /tmp/simlint ./cmd/simlint
//	go vet -vettool=/tmp/simlint ./...
//
// The vet protocol hands the tool one compilation unit at a time, so
// module-wide analyzers (purity) run only in standalone mode; CI runs
// both.
//
// Findings print as "path:line:col: message (analyzer)" and make the
// exit status non-zero, so CI treats a determinism violation like a
// failing test. A finding can be suppressed — visibly and greppably —
// with a trailing or preceding comment:
//
//	//simlint:allow <analyzer> <reason>
//
// The reason is mandatory; a reasonless directive is itself reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis/floatmerge"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/globalstate"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/latbound"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nondeterminism"
	"repro/internal/analysis/purity"
	"repro/internal/analysis/seedderive"
	"repro/internal/analysis/tracefmt"
	"repro/internal/analysis/unitsafe"
)

// analyzers is normalized at registration — sorted by name with
// duplicates dropped — so -list, usage, text output and the vet
// protocol all present the same stable set no matter how this list is
// assembled.
var analyzers = framework.Normalize([]*framework.Analyzer{
	nondeterminism.Analyzer,
	maporder.Analyzer,
	seedderive.Analyzer,
	floatmerge.Analyzer,
	purity.Analyzer,
	globalstate.Analyzer,
	tracefmt.Analyzer,
	hotalloc.Analyzer,
	latbound.Analyzer,
	unitsafe.Analyzer,
})

func main() {
	// `go vet -vettool` protocol: -V=full, -flags, or a unit.cfg file.
	// VetMain exits the process when it recognizes the invocation.
	if framework.VetMain(os.Args[1:], analyzers) {
		return
	}

	list := flag.Bool("list", false, "describe the analyzers and exit")
	format := flag.String("format", "text", `output format: "text" or "sarif" (SARIF 2.1.0 on stdout, for code-scanning upload)`)
	baseline := flag.String("baseline", "", "file of known findings to ignore: fail only on findings not listed in it")
	writeBaseline := flag.String("writebaseline", "", "record the current findings to this file and exit 0")
	bounds := flag.String("bounds", "", "write latbound's machine-readable static bounds report (JSON) to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-list] [-format=text|sarif] [-baseline file] [-writebaseline file] [package patterns]\n\n")
		fmt.Fprintf(os.Stderr, "Lints module packages (default ./...) with the determinism analyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "simlint: unknown -format %q (want text or sarif)\n", *format)
		os.Exit(2)
	}

	a, err := framework.Analyze(cwd, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	if *bounds != "" {
		report, _ := latbound.Collect(a.Fset, a.Pkgs, framework.BuildCallGraph(a.Pkgs), cwd)
		if err := writeBounds(*bounds, report); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "simlint: wrote %d region bound(s) to %s\n", len(report.Regions), *bounds)
	}

	if *writeBaseline != "" {
		n, err := writeBaselineFile(*writeBaseline, a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "simlint: wrote %d baseline entr%s to %s\n",
			n, plural(n, "y", "ies"), *writeBaseline)
		return
	}
	if *baseline != "" {
		entries, err := readBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		if ignored := applyBaseline(a, entries); ignored > 0 {
			fmt.Fprintf(os.Stderr, "simlint: %d baselined finding(s) ignored\n", ignored)
		}
	}

	switch *format {
	case "text":
		for _, d := range a.Diags {
			pos := a.Fset.Position(d.Pos)
			name := pos.Filename
			if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
				name = rel
			}
			fmt.Printf("%s:%d:%d: %s (%s)\n", name, pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	case "sarif":
		if err := writeSARIF(os.Stdout, a, analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	}
	if n := len(a.Diags); n > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
