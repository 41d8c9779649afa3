package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// buildRtsim compiles the rtsim binary once per test into a temp dir.
func buildRtsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rtsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build rtsim: %v\n%s", err, out)
	}
	return bin
}

func runBin(t *testing.T, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err := cmd.Run()
	exit = 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run %s %v: %v", bin, args, err)
	}
	return out.String(), errBuf.String(), exit
}

// TestRtsimFlagValidation pins the e2e flag contract: out-of-range
// -parallel and -scale values, and flags the binary does not define,
// exit 2 with an error that names the problem. The engine has one
// event queue and no modes, so invocations that set the retired
// -queue/-engine/-shards knobs must be refused, not ignored.
func TestRtsimFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildRtsim(t)
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"negative_parallel", []string{"-parallel", "-1", "-list"}, "-parallel must be >= 0"},
		{"zero_scale", []string{"-scale", "0", "-list"}, "-scale must be > 0"},
		{"unknown_queue", []string{"-queue", "wheel", "-list"}, "flag provided but not defined: -queue"},
		{"unknown_engine", []string{"-engine", "turbo", "-list"}, "flag provided but not defined: -engine"},
		{"zero_shards", []string{"-engine", "sharded", "-shards", "0", "-list"}, "flag provided but not defined: -engine"},
		{"negative_shards", []string{"-shards", "-2", "-list"}, "flag provided but not defined: -shards"},
		{"queue_vs_sharded", []string{"-engine", "sharded", "-queue", "heap", "-list"}, "flag provided but not defined: -engine"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, exit := runBin(t, bin, tc.args...)
			if exit != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", exit, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr does not name the problem (want %q):\n%s", tc.wantErr, stderr)
			}
		})
	}
}

// TestRtsimOutdirFigureCSVs: -outdir writes exactly one .csv per figure
// (core.FigureIDs), each byte-identical to core.FigureCSV's series for
// the same scale and seed, next to one .txt per experiment.
func TestRtsimOutdirFigureCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildRtsim(t)
	dir := t.TempDir()
	if _, stderr, exit := runBin(t, bin, "-outdir", dir, "-scale", "0.02", "-seed", "3"); exit != 0 {
		t.Fatalf("exit %d; stderr:\n%s", exit, stderr)
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) != len(core.FigureIDs()) {
		t.Fatalf("wrote %d CSV files %v, want one per figure %v", len(csvs), csvs, core.FigureIDs())
	}
	for _, id := range core.FigureIDs() {
		got, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.FigureCSV(id, 0.02, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s.csv differs from FigureCSV(%s, 0.02, 3)", id, id)
		}
	}
	for _, e := range core.Experiments() {
		if _, err := os.Stat(filepath.Join(dir, e.ID+".txt")); err != nil {
			t.Errorf("no report for %s: %v", e.ID, err)
		}
	}
}
