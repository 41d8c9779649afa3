package core

import (
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// equivWorkers covers the serial fast path, even splits, and a worker
// count that neither divides the replication count nor matches a power
// of two.
var equivWorkers = []int{1, 2, 4, 7}

// TestDeterminismBitIdenticalAcrossWorkerCounts is the core guarantee of
// the runner rewiring: the worker count is a throughput knob, never an
// input. Fig 1 exercises the placement fan-out in RunDeterminism.
func TestDeterminismBitIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	base, _ := tableFigure(t, "fig1", 0.1, 11, equivWorkers[0], 0)
	for _, w := range equivWorkers[1:] {
		if got, _ := tableFigure(t, "fig1", 0.1, 11, w, 0); !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
}

// TestRealfeelBitIdenticalAcrossWorkerCounts covers the replication
// sharding in RunRealfeel, with a replication count that no worker count
// in the set divides evenly.
func TestRealfeelBitIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := DefaultRealfeel(kernel.StandardLinux24(2, 0.933, false))
	cfg.Samples = 10_000
	cfg.Replications = 5
	cfg.Seed = sim.DeriveSeed(11, streamFig5)
	cfg.Workers = equivWorkers[0]
	base := RunRealfeel(cfg)
	legend := base.Legend(PaperThresholdsFig5())
	for _, w := range equivWorkers[1:] {
		cfg.Workers = w
		got := RunRealfeel(cfg)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
		if got.Legend(PaperThresholdsFig5()) != legend {
			t.Fatalf("workers=%d rendered a different legend", w)
		}
	}
}

// TestRCIMBitIdenticalAcrossWorkerCounts covers the replication sharding
// in RunRCIM.
func TestRCIMBitIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := DefaultRCIM(kernel.RedHawk14(2, 2.0))
	cfg.Samples = 10_000
	cfg.Replications = figureReplications
	cfg.Seed = sim.DeriveSeed(11, streamFig7)
	cfg.Workers = equivWorkers[0]
	base := RunRCIM(cfg)
	for _, w := range equivWorkers[1:] {
		cfg.Workers = w
		if got := RunRCIM(cfg); !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
}

// TestFigureCSVBytesIdenticalAcrossWorkerCounts asserts byte identity of
// the exported artifact itself, one figure per experiment family.
func TestFigureCSVBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	for _, id := range []string{"fig1", "fig5", "fig7"} {
		base, err := FigureCSV(id, 0.03, 11, equivWorkers[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range equivWorkers[1:] {
			got, err := FigureCSV(id, 0.03, 11, w)
			if err != nil {
				t.Fatal(err)
			}
			if got != base {
				t.Fatalf("%s: workers=%d produced different CSV bytes", id, w)
			}
		}
	}
}
