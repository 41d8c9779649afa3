//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/core"
)

// goldenFile is the committed record of FigureCSV(id, goldenScale,
// goldenSeed) hashes that the core tests pin. Every run re-checks it
// before timing anything: a benchmark of a simulator that no longer
// reproduces its figures measures nothing worth keeping.
const (
	goldenFile  = "internal/core/testdata/figure_hashes.txt"
	goldenScale = 0.05
	goldenSeed  = 7
)

// golden is what the check measured on the way: wall seconds per
// figure (the core.figure_s.* probes) and the Go GC's share of the CPU
// time the figures used.
type golden struct {
	figureS map[string]float64
	gcFrac  float64
}

func checkGolden(t *tally, parent span) (golden, error) {
	f, err := os.Open(goldenFile)
	if err != nil {
		return golden{}, err
	}
	defer f.Close()
	type entry struct{ id, hash string }
	var want []entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e entry
		if _, err := fmt.Sscan(line, &e.id, &e.hash); err != nil {
			return golden{}, fmt.Errorf("%s: %q: %w", goldenFile, line, err)
		}
		want = append(want, e)
	}
	if err := sc.Err(); err != nil {
		return golden{}, err
	}
	if len(want) == 0 {
		return golden{}, fmt.Errorf("%s: no hashes", goldenFile)
	}

	g := golden{figureS: map[string]float64{}}
	cpu0 := readCPUClasses()
	for _, e := range want {
		s := parent.child("core.FigureCSV " + e.id)
		start := time.Now()
		csv, err := core.FigureCSV(e.id, goldenScale, goldenSeed, 2)
		g.figureS[e.id] = time.Since(start).Seconds()
		s.end()
		if !t.check(err == nil, "golden %s: %v", e.id, err) {
			continue
		}
		got := core.HashBytes([]byte(csv))
		t.check(got == e.hash, "golden %s: hash %s, want %s", e.id, got, e.hash)
	}
	g.gcFrac = readCPUClasses().gcShareSince(cpu0)
	return g, nil
}

// cpuClasses is the runtime's own account of where the process's CPU
// time went.
type cpuClasses struct{ gc, total, idle float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), total: s[1].Value.Float64(), idle: s[2].Value.Float64()}
}

// gcShareSince is the GC's share of the CPU time used (not idle) since
// an earlier reading.
func (c cpuClasses) gcShareSince(old cpuClasses) float64 {
	used := (c.total - c.idle) - (old.total - old.idle)
	if used <= 0 {
		return 0
	}
	return (c.gc - old.gc) / used
}
