package core

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Regenerate with: go test ./internal/core -run 'Golden' -update
var updateGoldens = flag.Bool("update", false, "rewrite testdata golden figure and experiment hashes from this run")

// goldenScale/goldenSeed pin the scaled-down runs the golden hashes are
// computed from. Changing either (or anything that feeds the simulation)
// legitimately invalidates the goldens; rerun with -update and review the
// diff like any other behavior change.
const (
	goldenScale = 0.05
	goldenSeed  = 7
)

// TestFigureResultsReproducible runs every figure's canonical
// configuration twice with the same seed and requires the full result
// structs — histograms, summaries, reports — to come out identical. This
// is the determinism contract at the struct level; the golden-hash test
// below extends it across sessions and machines.
func TestFigureResultsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	for _, id := range FigureIDs() {
		t.Run(id, func(t *testing.T) {
			a, _ := tableFigure(t, id, goldenScale, goldenSeed, 0, 0)
			b, _ := tableFigure(t, id, goldenScale, goldenSeed, 0, 0)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: same seed, different result structs", id)
			}
		})
	}
}

// tableFigure runs figure id's table entry with every machine under
// tie-break salt and returns its raw result struct (whose concrete type
// depends on the figure family) and its CSV series.
func tableFigure(t *testing.T, id string, scale float64, seed uint64, workers int, salt uint64) (result any, csv string) {
	t.Helper()
	fr, err := resolveFigure(id, scale, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	result, _, csv = fr.run(salt)
	return result, csv
}

// TestFigureGoldenHashes regenerates every figure's CSV export at the
// pinned scale and seed and compares its FNV-1a hash against the
// committed goldens — a regression tripwire for *any* unintended change
// to simulation behavior, seed derivation or merge order.
func TestFigureGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	got := map[string]string{}
	for _, id := range FigureIDs() {
		csv, err := FigureCSV(id, goldenScale, goldenSeed, 0)
		if err != nil {
			t.Fatalf("FigureCSV(%s): %v", id, err)
		}
		got[id] = HashBytes([]byte(csv))
	}
	checkGoldenHashes(t, "figure_hashes.txt",
		"# FNV-1a hashes of FigureCSV(id, scale=0.05, seed=7).\n"+
			"# Regenerate: go test ./internal/core -run TestFigureGoldenHashes -update\n",
		FigureIDs(), got)
}

// TestExperimentGoldenHashes pins, byte for byte, the consumers the
// figure goldens do not cover: every experiment report (report:id for
// the figures, the bare id for the ablations and extensions) and every
// sweep table, at the same pinned scale and seed. Several of them
// (ablate-hyperthreading and the ht-slowdown, bus-contention and
// softirq-netcost sweeps) run RunDeterminism with their own loop sizes.
// The trace-capture:* ids pin CaptureTrace's text and Chrome exports,
// the scenario:* ids pin each served scenario's content address and
// admission cost as "key/cost_virtual_ms" at two request sizes, the
// image:* ids pin each reference machine's boot-image key, and the
// bootimg:* and contimg:* ids pin its image bytes after boot and after
// one continuation window.
func TestExperimentGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	var ids []string
	got := map[string]string{}
	for _, e := range Experiments() {
		id := e.ID
		if slices.Contains(FigureIDs(), e.ID) {
			id = "report:" + e.ID
		}
		ids = append(ids, id)
		got[id] = HashBytes([]byte(e.Run(goldenScale, goldenSeed, 0)))
	}
	for _, fig := range ServedScenarios() {
		for _, size := range []float64{goldenScale, 1} {
			scale, runFor := size, 0
			id := fmt.Sprintf("scenario:%s/scale=%v", fig, scale)
			if fig == ScenarioRefStock || fig == ScenarioRefShielded {
				scale, runFor = 0, int(size*100)
				id = fmt.Sprintf("scenario:%s/run_for_ms=%d", fig, runFor)
			}
			s, err := ResolveScenario(fig, scale, goldenSeed, runFor)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			ids = append(ids, id)
			got[id] = fmt.Sprintf("%s/%d", s.Key(), s.CostVirtualMS())
		}
	}
	for _, fig := range []string{ScenarioRefStock, ScenarioRefShielded} {
		s, err := ResolveScenario(fig, 0, goldenSeed, 0)
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		key, err := s.ImageKey()
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		id := "image:" + fig
		ids = append(ids, id)
		got[id] = key

		// The image bytes themselves, after boot and after one 20 ms
		// continuation window: the snapshot codec's output, pinned.
		sys, err := BootReference(s.Ref, goldenSeed, 0)
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		for _, pin := range []struct {
			prefix string
			runFor sim.Duration
		}{{"bootimg:", 0}, {"contimg:", 20 * sim.Millisecond}} {
			sys.K.Eng.Run(sys.K.Now().Add(pin.runFor))
			img, err := sys.K.Snapshot()
			if err != nil {
				t.Fatalf("%s%s: %v", pin.prefix, fig, err)
			}
			ids = append(ids, pin.prefix+fig)
			got[pin.prefix+fig] = HashBytes(img)
		}
	}
	for _, s := range Sweeps() {
		id := "sweep:" + s.ID
		ids = append(ids, id)
		got[id] = HashBytes([]byte(RunSweep(s, goldenScale, goldenSeed, 0)))
	}
	buf := CaptureTrace(goldenScale, goldenSeed)
	for _, f := range []struct {
		id    string
		write func(io.Writer) error
	}{{"trace-capture:text", buf.WriteText}, {"trace-capture:chrome", buf.WriteChromeTrace}} {
		var b strings.Builder
		if err := f.write(&b); err != nil {
			t.Fatalf("%s: %v", f.id, err)
		}
		ids = append(ids, f.id)
		got[f.id] = HashBytes([]byte(b.String()))
	}
	checkGoldenHashes(t, "experiment_hashes.txt",
		"# FNV-1a hashes of Experiment.Run (report:id for figures, bare id otherwise), RunSweep (sweep:id) and CaptureTrace exports (trace-capture:format), scale=0.05, seed=7;\n"+
			"# scenario:id/size lines are ResolveScenario(id, ..., seed=7)'s Key()/CostVirtualMS().\n"+
			"# image:id lines are ResolveScenario(id, 0, seed=7, 0)'s ImageKey(), the boot-image cache address;\n"+
			"# bootimg:id and contimg:id lines hash that machine's post-boot image and its image after one 20 ms window.\n"+
			"# Regenerate: go test ./internal/core -run TestExperimentGoldenHashes -update\n",
		ids, got)
}

// checkGoldenHashes compares got against testdata/name for every id, or
// rewrites the file (header, then one sorted "id hash" line per id)
// under -update.
func checkGoldenHashes(t *testing.T, name, header string, ids []string, got map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		var b strings.Builder
		b.WriteString(header)
		sorted := append([]string(nil), ids...)
		sort.Strings(sorted)
		for _, id := range sorted {
			fmt.Fprintf(&b, "%s %s\n", id, got[id])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (%v); run with -update to create them", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[parts[0]] = parts[1]
	}
	for _, id := range ids {
		if want[id] == "" {
			t.Errorf("%s: no committed golden; run with -update", id)
			continue
		}
		if got[id] != want[id] {
			t.Errorf("%s: output hash %s, golden %s — simulation output changed; if intended, rerun with -update",
				id, got[id], want[id])
		}
	}
}
