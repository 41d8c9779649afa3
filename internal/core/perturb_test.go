package core

import (
	"testing"

	"repro/internal/sim"
)

// The headline property of the whole perturbation design: every figure
// is invariant under permuted same-instant tie-breaks, because each
// event whose simultaneity order matters is a pinned timer
// (sim.Timer.Init) and everything else genuinely commutes.
// A failure here means someone added an order-sensitive collision
// without declaring its arbitration.
func TestRunPerturbFiguresInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	for _, fp := range RunPerturbFigures(0.02, 7, 0, 2) {
		if !fp.Report.OK() {
			t.Errorf("%s: %s", fp.ID, fp.Report)
		}
		if len(fp.Report.Runs) != 2 {
			t.Errorf("%s: %d perturbed runs, want 2", fp.ID, len(fp.Report.Runs))
		}
	}
}

// A figure's CSV series at salt 0 must be FigureCSV, bit for bit — the
// baseline of every perturbation report is the published series.
func TestFigureCSVSaltedZeroIsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	plain, err := FigureCSV("fig7", 0.02, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, salted := tableFigure(t, "fig7", 0.02, 7, 1, 0); plain != salted {
		t.Fatal("salt-0 CSV series differs from FigureCSV")
	}
}

// An id outside the figures table resolves to an error, not a run.
func TestFigureCSVSaltedUnknownID(t *testing.T) {
	if _, err := resolveFigure("fig99", 1, 1, 1); err == nil {
		t.Fatal("unknown figure id did not error")
	}
}

// RunChecksOpts with the invariant sampler armed must reach the same
// verdicts: the sampler is read-only and draws no randomness.
func TestRunChecksWithInvariantSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	opts := CheckOptions{InvariantPeriod: sim.Millisecond}
	results := RunChecksOpts(0.05, 1, 0, opts)
	if len(results) < 9 {
		t.Fatalf("only %d checks", len(results))
	}
}
