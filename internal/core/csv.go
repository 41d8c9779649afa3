package core

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// FigureCSV regenerates the plotted data series behind a figure as CSV
// (bin upper edge, count), so the paper's graphs — not just their
// legends — can be rebuilt with any plotting tool. It is RunFigure's
// CSV half, so the CSV always matches the figure's report. Supported
// ids: FigureIDs() (attrib-causes' series is the per-cause latency
// decomposition rather than a histogram).
func FigureCSV(id string, scale float64, seed uint64, workers int) (string, error) {
	_, csv, err := RunFigure(id, scale, seed, workers)
	return csv, err
}

// RunFigure runs one figure once and returns both its rendered report
// (Experiment.Run's bytes) and its CSV series (FigureCSV's bytes).
func RunFigure(id string, scale float64, seed uint64, workers int) (report, csv string, err error) {
	fr, err := resolveFigure(id, scale, seed, workers)
	if err != nil {
		return "", "", err
	}
	_, report, csv = fr.run(0)
	return report, csv, nil
}

func histCSV(h *metrics.Histogram, unit string, div float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bin_upper_%s,count\n", unit)
	for _, row := range h.Rows() {
		fmt.Fprintf(&b, "%.3f,%d\n", float64(row.Upper)/div, row.Count)
	}
	return b.String()
}
