// Command benchjson records the event-engine performance baseline as a
// machine-readable JSON file (BENCH_engine.json at the repo root).
//
// Usage:
//
//	benchjson [-o BENCH_engine.json] [-quick]
//
// It runs the engine benchmarks through testing.Benchmark — pooled
// ladder schedule/dispatch churn at two steady-state queue depths, plus
// full-system serial and parallel replication throughput — and writes
// one JSON document with ns/op, allocs/op and events/sec per benchmark.
// The comparison against the reference heap and alloc-per-event pool
// lives with those test-only oracles in internal/sim
// (BenchmarkEngineChurn, TestChurnAllocsVsReference).
//
// Since bench-engine/v3 the document also carries a `snapshot` block:
// full-machine checkpoint encode/decode throughput on the post-boot
// shielded reference machine, the image size, and bytes per virtual
// second — the planning numbers for auto-snapshot cadence in the
// divergence bisector and for warm-started sweeps.
//
// Since bench-engine/v4 a `service` block records the simd serving
// layer's end-to-end request latency over an in-process HTTP server:
// cached-hit requests per second (admission + content-addressed store
// lookup, no simulation), the cold-miss cost of a full continuation
// boot + run, the warm-miss cost of a fresh window restored from a
// cached boot image, and the hit-vs-cold ratio — what the cache buys
// per duplicate request.
//
// Since bench-engine/v5 the document carries ladder rows only: the
// heap/alloc reference rows, their ratios and the sharded-engine block
// are gone with the mechanisms they measured.
//
// The file is a recorded baseline, not a gate: regenerate it with
// `make bench-json` when the engine changes. The tool always exits 0
// unless it cannot run the benchmarks or write the file; CI uploads the
// JSON as an artifact and fails only on build errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	shieldsim "repro"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/runner"
	"repro/internal/sim"
)

// benchResult is one benchmark's record in the baseline file.
type benchResult struct {
	Name string `json:"name"`
	// Iters is the iteration count testing.Benchmark settled on.
	Iters int `json:"iters"`
	// NsPerOp is wall-clock nanoseconds per benchmark iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per iteration.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// EventsPerOp is how many engine events one iteration dispatches
	// (1 for the churn microbenchmarks, measured for system runs).
	EventsPerOp float64 `json:"events_per_op"`
	// EventsPerSec = EventsPerOp / (NsPerOp * 1e-9): the throughput
	// headline.
	EventsPerSec float64 `json:"events_per_sec"`
}

// baseline is the whole BENCH_engine.json document.
type baseline struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
	// Service records the simd serving layer's end-to-end request
	// latency (bench-engine/v4): a cache hit (admission + store lookup,
	// no simulation), a cold miss (full continuation boot + run) and a
	// warm miss (fresh window restored from a cached boot image). The
	// hit/miss gap is what content-addressing buys per duplicate
	// request; warm-vs-cold is what image reuse buys per fresh window.
	Service struct {
		HitNsPerOp        float64 `json:"hit_ns_per_op"`
		HitRequestsPerSec float64 `json:"hit_requests_per_sec"`
		ColdMissNsPerOp   float64 `json:"cold_miss_ns_per_op"`
		WarmMissNsPerOp   float64 `json:"warm_miss_ns_per_op"`
		HitVsColdRatio    float64 `json:"hit_vs_cold_ratio"`
		WarmVsColdRatio   float64 `json:"warm_vs_cold_ratio"`
	} `json:"service"`
	// Snapshot records the checkpoint/restore codec's throughput on the
	// shielded reference machine: full-machine encode and decode cost,
	// the image size, and how many image bytes one virtual second of the
	// loaded machine costs to checkpoint (the planning number for
	// auto-snapshot cadence in bisection and for warm-start sweeps).
	Snapshot struct {
		ImageBytes            int     `json:"image_bytes"`
		EncodeNsPerOp         float64 `json:"encode_ns_per_op"`
		DecodeNsPerOp         float64 `json:"decode_ns_per_op"`
		EncodeMBPerSec        float64 `json:"encode_mb_per_sec"`
		DecodeMBPerSec        float64 `json:"decode_mb_per_sec"`
		BytesPerVirtualSecond float64 `json:"bytes_per_virtual_second"`
	} `json:"snapshot"`
}

func main() {
	out := flag.String("o", "BENCH_engine.json", "output path for the baseline JSON")
	quick := flag.Bool("quick", false, "smaller system/parallel runs (smoke mode; numbers are noisier)")
	flag.Parse()

	b := baseline{
		Schema:     "bench-engine/v5",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	add := func(r benchResult) {
		b.Benchmarks = append(b.Benchmarks, r)
		fmt.Fprintf(os.Stderr, "%-40s %12.1f ns/op %8.2f allocs/op %14.0f events/sec\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
	}

	// --- churn: per-event engine overhead at fixed depth ---
	for _, depth := range []int{1024, 16384} {
		r := testing.Benchmark(churnBench(depth))
		add(record(fmt.Sprintf("churn/ladder/pooled/depth=%d", depth), r, 1))
	}

	// --- full system, serial: one machine under stress load ---
	slices := 400
	machines, horizon := 8, 30
	if *quick {
		slices, machines, horizon = 50, 4, 10
	}
	var evPerOp float64
	r := testing.Benchmark(systemBench(slices, &evPerOp))
	add(record("system/serial/ladder", r, evPerOp))

	// --- full system, parallel: replication fan-out, per-worker pools ---
	r = testing.Benchmark(parallelBench(0, machines, horizon, &evPerOp))
	add(record("system/parallel/ladder", r, evPerOp))

	// --- snapshot codec: full-machine encode/decode throughput ---
	var imgBytes int
	encR := testing.Benchmark(snapshotEncodeBench(&imgBytes))
	add(record("snapshot/encode", encR, 1))
	decR := testing.Benchmark(snapshotDecodeBench())
	add(record("snapshot/decode", decR, 1))
	sn := &b.Snapshot
	sn.ImageBytes = imgBytes
	sn.EncodeNsPerOp = float64(encR.T.Nanoseconds()) / float64(encR.N)
	sn.DecodeNsPerOp = float64(decR.T.Nanoseconds()) / float64(decR.N)
	if sn.EncodeNsPerOp > 0 {
		sn.EncodeMBPerSec = float64(imgBytes) / sn.EncodeNsPerOp * 1e9 / 1e6
	}
	if sn.DecodeNsPerOp > 0 {
		sn.DecodeMBPerSec = float64(imgBytes) / sn.DecodeNsPerOp * 1e9 / 1e6
	}
	// The reference image captures refBootHorizon (40 ms) of virtual
	// time; bytes per virtual second is the auto-snapshot budget number.
	sn.BytesPerVirtualSecond = float64(imgBytes) / 0.040

	// --- simd serving layer: request latency by cache disposition ---
	hitR := testing.Benchmark(serviceHitBench())
	add(record("service/cache_hit", hitR, 1))
	coldR := testing.Benchmark(serviceColdMissBench())
	add(record("service/cold_miss", coldR, 1))
	warmR := testing.Benchmark(serviceWarmMissBench())
	add(record("service/warm_miss", warmR, 1))
	sv := &b.Service
	sv.HitNsPerOp = float64(hitR.T.Nanoseconds()) / float64(hitR.N)
	sv.ColdMissNsPerOp = float64(coldR.T.Nanoseconds()) / float64(coldR.N)
	sv.WarmMissNsPerOp = float64(warmR.T.Nanoseconds()) / float64(warmR.N)
	if sv.HitNsPerOp > 0 {
		sv.HitRequestsPerSec = 1e9 / sv.HitNsPerOp
		sv.HitVsColdRatio = sv.ColdMissNsPerOp / sv.HitNsPerOp
	}
	if sv.WarmMissNsPerOp > 0 {
		sv.WarmVsColdRatio = sv.ColdMissNsPerOp / sv.WarmMissNsPerOp
	}

	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	fmt.Fprintf(os.Stderr, "  snapshot: %d-byte image, encode %.1f MB/s, decode %.1f MB/s, %.0f bytes/virtual-second\n",
		sn.ImageBytes, sn.EncodeMBPerSec, sn.DecodeMBPerSec, sn.BytesPerVirtualSecond)
	fmt.Fprintf(os.Stderr, "  service: %.0f cached requests/sec, hit %.0fx and warm start %.1fx cheaper than cold miss (cold %.2f ms, warm %.2f ms)\n",
		sv.HitRequestsPerSec, sv.HitVsColdRatio, sv.WarmVsColdRatio, sv.ColdMissNsPerOp/1e6, sv.WarmMissNsPerOp/1e6)
}

func record(name string, r testing.BenchmarkResult, eventsPerOp float64) benchResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	res := benchResult{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     ns,
		AllocsPerOp: float64(r.MemAllocs) / float64(r.N),
		EventsPerOp: eventsPerOp,
	}
	if ns > 0 {
		res.EventsPerSec = eventsPerOp * 1e9 / ns
	}
	return res
}

// churnBench mirrors the pooled-ladder rows of BenchmarkEngineChurn in
// internal/sim: one schedule plus one dispatch per iteration at a fixed
// queue depth.
func churnBench(depth int) func(*testing.B) {
	return func(b *testing.B) {
		e := sim.NewEngine(1)
		fn := func() {}
		// ~1 µs per pending event, the density the kernel cadence
		// produces; depth controls queue length, not slot occupancy.
		for i := 0; i < depth; i++ {
			e.After(sim.Duration(i%depth)*sim.Microsecond, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.After(sim.Duration(i%depth)*sim.Microsecond, fn)
			e.Step()
		}
	}
}

// snapshotEncodeBench serialises the post-boot shielded reference
// machine (full load mix, 40 ms of virtual time) once per iteration;
// imgBytes receives the image size.
func snapshotEncodeBench(imgBytes *int) func(*testing.B) {
	return func(b *testing.B) {
		s, err := core.BootReference(core.RefShielded, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		img, err := s.K.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		*imgBytes = len(img)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.K.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// snapshotDecodeBench restores the reference image into a standing
// machine once per iteration — the full decode: drain the queue,
// overwrite every component, re-push every pending event.
func snapshotDecodeBench() func(*testing.B) {
	return func(b *testing.B) {
		src, err := core.BootReference(core.RefShielded, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		img, err := src.K.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		dst, err := core.BootReference(core.RefShielded, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dst.K.RestoreImage(img); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// systemBench runs one stress-loaded machine, advancing virtual time in
// 1 ms slices; eventsPerOp receives the measured events per slice. The
// slice count bounds each iteration so testing.Benchmark converges.
func systemBench(slices int, eventsPerOp *float64) func(*testing.B) {
	return func(b *testing.B) {
		s := shieldsim.NewSystem(kernel.RedHawk14(2, 1.0), 1, shieldsim.SystemOptions{
			RTCHz: 2048,
			Loads: []string{shieldsim.LoadStressKernel},
		})
		s.Start()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < slices; j++ {
				s.K.Eng.Run(s.K.Now() + sim.Time(sim.Millisecond))
			}
		}
		*eventsPerOp = float64(s.K.Eng.Fired()) / float64(b.N)
	}
}

// parallelBench fans `machines` independent stress machines out across
// the replication runner with one event pool per worker (the
// MapSeededPooled ownership pattern) and counts total events fired.
func parallelBench(workers, machines, horizonMs int, eventsPerOp *float64) func(*testing.B) {
	return func(b *testing.B) {
		var total uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fired := runner.MapSeededPooled(workers, 99, machines,
				func(j int, seed uint64, pool *sim.EventPool) uint64 {
					cfg := kernel.RedHawk14(2, 1.0)
					cfg.EventPool = pool
					s := shieldsim.NewSystem(cfg, seed, shieldsim.SystemOptions{
						RTCHz: 2048,
						Loads: []string{shieldsim.LoadStressKernel},
					})
					s.Start()
					s.K.Eng.Run(sim.Time(sim.Duration(horizonMs) * sim.Millisecond))
					return s.K.Eng.Fired()
				})
			for _, f := range fired {
				total += f
			}
		}
		*eventsPerOp = float64(total) / float64(b.N)
	}
}
