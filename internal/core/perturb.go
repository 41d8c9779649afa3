package core

import "repro/internal/runner"

// FigurePerturbation is the perturbation verdict for one figure.
type FigurePerturbation struct {
	ID     string
	Report runner.PerturbReport
}

// RunPerturbFigures re-runs every figure in the figures table under n
// seeded tie-break perturbations (plus the FIFO baseline) and reports,
// per figure, whether any permutation of same-instant event dispatch
// changed the figure's data series. A divergence is a tie-break race somewhere in
// the model: a result that silently depends on the FIFO order of
// simultaneous events rather than on the model itself.
//
// The fingerprint is the FNV-1a hash of the figure's CSV series — the
// same series the golden hashes in internal/core/testdata pin, so "no
// divergence" means the published figures are invariant, not merely
// some summary statistic. Parallelism fans out across the perturbed
// runs (each run is single-threaded internally), so workers never
// affects the verdict, only wall-clock time.
func RunPerturbFigures(scale float64, seed uint64, workers, n int) []FigurePerturbation {
	out := make([]FigurePerturbation, len(figures))
	for i, f := range figures {
		out[i] = FigurePerturbation{
			ID: f.id,
			Report: runner.Perturb(workers, seed, n, func(salt uint64) string {
				_, _, csv := f.resolve(f.id, scale, seed, 1).run(salt)
				return HashBytes([]byte(csv))
			}),
		}
	}
	return out
}
