//go:build linux

package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Seed streams: each workload derives its inputs from the run seed on
// its own stream, so two workloads never share inputs by accident.
const (
	streamFigures uint64 = iota + 1
	streamAttrib
	streamSimdHot
	streamSimdChurn
	streamProbes
)

// figureWorkers is the replication fan-out of every simulation call:
// the 2 CPUs the benchmark is sized for.
const figureWorkers = 2

// batch is a closed loop with one caller making repeated in-process
// FigureCSV calls, a whole pass over its figures at a time so every
// run times the same mix.
type batch struct {
	figures []string
	scale   float64
	seed    uint64
	passVS  float64  // virtual seconds one pass simulates
	want    []string // hash of each figure's first output
	t       *tally
}

// setupFigures: fig1..fig7 at scale 0.25 — the path every rtsim and
// reprocheck user pays, with tracing off.
func setupFigures(e *env) (instance, error) {
	return newBatch(e, []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}, 0.25, streamFigures)
}

// setupAttrib: fig7's RCIM experiment with tracepoints armed and every
// sample attributed. Scale 0.5 (6,250 samples per replication) keeps
// steady full-ring trace occupancy dominant over the ring-fill phase.
func setupAttrib(e *env) (instance, error) {
	return newBatch(e, []string{"attrib-causes"}, 0.5, streamAttrib)
}

func newBatch(e *env, figures []string, scale float64, stream uint64) (*batch, error) {
	b := &batch{
		figures: figures,
		scale:   scale,
		seed:    sim.DeriveSeed(e.seed, stream),
		want:    make([]string, len(figures)),
		t:       e.t,
	}
	for _, id := range figures {
		sc, err := core.ResolveScenario(id, scale, b.seed, 0)
		if err != nil {
			return nil, err
		}
		b.passVS += float64(sc.CostVirtualMS()) / 1e3
	}
	return b, nil
}

func (b *batch) measure(d time.Duration, tr *tracer) (map[string]float64, error) {
	var lat []float64
	passes := 0
	cpu0 := rusageCPU(selfRusage())
	start := time.Now()
	for op := int64(0); time.Since(start) < d; passes++ {
		for i, id := range b.figures {
			op++
			root := tr.root("bench.call", op, 0)
			c := root.child("core.FigureCSV " + id)
			t0 := time.Now()
			csv, err := core.FigureCSV(id, b.scale, b.seed, figureWorkers)
			lat = append(lat, durMS(time.Since(t0)))
			c.end()
			if err != nil {
				root.end()
				return nil, fmt.Errorf("FigureCSV %s: %w", id, err)
			}
			v := root.child("bench.verify")
			h := core.HashBytes([]byte(csv))
			if b.want[i] == "" {
				b.want[i] = h
			}
			b.t.check(h == b.want[i], "%s: output %s differs from the first call's %s", id, h, b.want[i])
			v.end()
			root.end()
		}
	}
	wall := time.Since(start).Seconds()
	ru := selfRusage()
	fmt.Printf("%d passes, %d calls in %.3f s; call p50 %.1f ms, max %.1f ms\n",
		passes, len(lat), wall, percentile(lat, 0.5), percentile(lat, 1))
	return map[string]float64{
		"vsec_per_s":     float64(passes) * b.passVS / wall,
		"cpu_ms_per_req": durMS(rusageCPU(ru)-cpu0) / float64(len(lat)),
		"max_rss_mb":     rusageMaxRSSMB(ru),
	}, nil
}

func (b *batch) finish() error { return nil }

func (b *batch) close() {}
