//go:build linux

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/simd"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// The layer probes time each layer's public API from outside, on the
// reference machines the snapshot and simd layers use. They run in
// every traced run, whatever the workload, so each per-layer metric
// has one definition.

// refBoot is core's post-boot instant (refBootHorizon): a reference
// machine built with core.BuildReference and run to refBoot is in the
// state core.BootReference returns. probeSnapshot checks this against
// the post-boot image core.RunContinuationCold produces.
const refBoot = sim.Time(40 * sim.Millisecond)

// probeOp numbers probe spans apart from workload operations.
const probeOp = 1 << 40

// probes carries what one probe hands to a later one.
type probes struct {
	e    *env
	seed uint64
	m    map[string]float64
	// contHash is the direct result hash of each continuation the core
	// probe ran, keyed by request body; the simd probe must serve the
	// same bytes.
	contHash   map[string]string
	contWarmMS float64
}

func runProbes(e *env, tr *tracer) (map[string]float64, error) {
	p := &probes{e: e, seed: sim.DeriveSeed(e.seed, streamProbes), m: map[string]float64{}, contHash: map[string]string{}}
	steps := []struct {
		name string
		run  func(span) error
	}{
		{"sim+kernel", p.engine},
		{"runner", p.runner},
		{"metrics", p.merge},
		{"core", p.core},
		{"trace", p.trace},
		{"snapshot", p.snapshot},
		{"simd", p.simd},
	}
	for i, s := range steps {
		root := tr.root("bench.probe "+s.name, probeOp+int64(i), 0)
		err := s.run(root)
		root.end()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return p.m, nil
}

// bootShielded builds the shielded reference machine and runs it to
// the post-boot instant, returning both phase times.
func bootShielded(seed uint64, pool *sim.EventPool, parent span) (*core.System, time.Duration, time.Duration, error) {
	s := parent.child("core.BuildReference")
	t0 := time.Now()
	sys, err := core.BuildReference(core.RefShielded, seed, pool)
	build := time.Since(t0)
	s.end()
	if err != nil {
		return nil, 0, 0, err
	}
	s = parent.child("sim.Engine.Run boot")
	t0 = time.Now()
	sys.K.Eng.Run(refBoot)
	boot := time.Since(t0)
	s.end()
	return sys, build, boot, nil
}

// engine: build and boot the shielded reference machine five times,
// then on each run 1,000 slices of 1 ms through Engine.Run. Events per
// virtual second and pool reuse are counts; host time per event, minus
// the bare engine's cost at the same queue depth, is the kernel model's
// (devices and workloads included).
func (p *probes) engine(root span) error {
	const slices = 1_000
	var build, boot, runNS, allocs, bytesPer []float64
	var sys *core.System
	for i := 0; i < 5; i++ {
		var b, bt time.Duration
		var err error
		sys, b, bt, err = bootShielded(p.seed, nil, root)
		if err != nil {
			return err
		}
		build, boot = append(build, durMS(b)), append(boot, durMS(bt))
		eng := sys.K.Eng
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		f0 := eng.Fired()
		s := root.child("sim.Engine.Run slices")
		t0 := time.Now()
		for j := 0; j < slices; j++ {
			eng.Run(eng.Now().Add(sim.Millisecond))
		}
		wall := time.Since(t0)
		s.end()
		runtime.ReadMemStats(&ms1)
		fired := float64(eng.Fired() - f0)
		runNS = append(runNS, float64(wall)/fired)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/fired)
		bytesPer = append(bytesPer, float64(ms1.TotalAlloc-ms0.TotalAlloc)/fired)
		p.m["sim.events_per_vsec"] = fired / (slices * sim.Millisecond).Seconds()
	}
	ps := sys.K.Eng.PoolStats()
	s := root.child("sim.Engine churn")
	churn := churnNS(p.seed, sys.K.Eng.Pending())
	s.end()
	p.m["kernel.build_ms"] = median(build)
	p.m["kernel.boot_ms"] = median(boot)
	p.m["sim.churn_ns_per_event"] = churn
	p.m["kernel.ns_per_event"] = median(runNS) - churn
	p.m["kernel.allocs_per_event"] = median(allocs)
	p.m["kernel.alloc_bytes_per_event"] = median(bytesPer)
	p.m["sim.pool_reuse_frac"] = float64(ps.Reuses) / float64(ps.Allocs+ps.Reuses)
	return nil
}

// churnNS is the bare engine's cost per event: every event reschedules
// itself 1 µs-1 ms ahead, with depth events pending — the reference
// machine's queue depth. Median of three timed runs.
func churnNS(seed uint64, depth int) float64 {
	const steps = 200_000
	var runs []float64
	for r := 0; r < 3; r++ {
		eng := sim.NewEngine(seed)
		rng := eng.RNG()
		var fire func()
		fire = func() { eng.After(rng.Uniform(sim.Microsecond, sim.Millisecond), fire) }
		for i := 0; i < depth; i++ {
			eng.After(rng.Uniform(sim.Microsecond, sim.Millisecond), fire)
		}
		for i := 0; i < steps/10; i++ {
			eng.Step()
		}
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			eng.Step()
		}
		runs = append(runs, float64(time.Since(t0))/steps)
	}
	return median(runs)
}

// runner: 6 and 8 boot replications of the reference machine through
// runner.MapSeededPooled on 2 workers. Efficiency is replication busy
// time over workers × wall; the idle remainder is the tail.
func (p *probes) runner(root span) error {
	var busy, capacity time.Duration
	for _, n := range []int{6, 8} {
		times := make([]time.Duration, n)
		errs := make([]error, n)
		s := root.child(fmt.Sprintf("runner.MapSeededPooled n=%d", n))
		t0 := time.Now()
		runner.MapSeededPooled(figureWorkers, p.seed, n, func(i int, seed uint64, pool *sim.EventPool) struct{} {
			start := time.Now()
			_, _, _, errs[i] = bootShielded(seed, pool, span{})
			times[i] = time.Since(start)
			return struct{}{}
		})
		capacity += figureWorkers * time.Since(t0)
		s.end()
		for i := range times {
			if errs[i] != nil {
				return errs[i]
			}
			busy += times[i]
		}
	}
	p.m["runner.efficiency"] = float64(busy) / float64(capacity)
	p.m["runner.tail_idle_ms"] = durMS(capacity - busy)
	return nil
}

// merge: Histogram.Merge of fig7-shaped histograms (10,000 × 1 µs
// bins) plus ResponseSummary.Merge, per merge.
func (p *probes) merge(root span) error {
	const samples, merges = 20_000, 2_000
	a := metrics.NewHistogram(sim.Microsecond, 10_000)
	b := metrics.NewHistogram(sim.Microsecond, 10_000)
	var sa, sb metrics.ResponseSummary
	rng := sim.NewRNG(p.seed)
	for i := 0; i < samples; i++ {
		d := rng.Uniform(sim.Microsecond, 10*sim.Millisecond)
		b.Add(d)
		sb.Add(d)
	}
	s := root.child("metrics.Merge")
	t0 := time.Now()
	for i := 0; i < merges; i++ {
		if err := a.Merge(b); err != nil {
			return err
		}
		sa.Merge(sb)
	}
	p.m["metrics.merge_us"] = float64(time.Since(t0)) / 1e3 / merges
	s.end()
	p.e.t.check(a.Count() == samples*merges && sa.Samples == samples*merges,
		"merge: %d histogram and %d summary samples, want %d", a.Count(), sa.Samples, samples*merges)
	return nil
}

// probeConts are the continuation shapes the core and simd probes
// share: a cold 5 ms window and a warm 6 ms window per seed.
const probeConts = 24

func (p *probes) cont(k, runForMS int) simd.ScenarioRequest {
	return continuation(uint64(k), sim.DeriveSeed(p.seed, uint64(200+k)), runForMS)
}

// core: ResolveScenario + Key + CostVirtualMS per request body, and
// direct cold and warm continuations.
func (p *probes) core(root span) error {
	var reqs []simd.ScenarioRequest
	for k := 0; k < 8; k++ {
		reqs = append(reqs, p.cont(k, 20))
	}
	for _, fig := range []string{"fig5", "fig6", "fig7", "attrib-causes"} {
		reqs = append(reqs, simd.ScenarioRequest{Figure: fig, Scale: 0.01, Seed: p.seed})
	}
	const rounds = 200
	s := root.child("core.ResolveScenario")
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, r := range reqs {
			sc, err := core.ResolveScenario(r.Figure, r.Scale, r.Seed, r.RunForMS)
			if err != nil {
				return err
			}
			if sc.Key() == "" || sc.CostVirtualMS() <= 0 {
				return fmt.Errorf("resolve %+v: empty key or cost", r)
			}
		}
	}
	p.m["core.resolve_us"] = float64(time.Since(t0)) / 1e3 / float64(rounds*len(reqs))
	s.end()

	var cold, warm []float64
	for k := 0; k < probeConts; k++ {
		c, w := p.cont(k, 5), p.cont(k, 6)
		csc, err := core.ResolveScenario(c.Figure, 0, c.Seed, c.RunForMS)
		if err != nil {
			return err
		}
		wsc, err := core.ResolveScenario(w.Figure, 0, w.Seed, w.RunForMS)
		if err != nil {
			return err
		}
		s := root.child("core.RunContinuationCold")
		t0 := time.Now()
		out, img, err := core.RunContinuationCold(csc, nil)
		cold = append(cold, durMS(time.Since(t0)))
		s.end()
		if err != nil {
			return err
		}
		s = root.child("core.RunContinuationWarm")
		t0 = time.Now()
		wout, err := core.RunContinuationWarm(wsc, img, nil)
		warm = append(warm, durMS(time.Since(t0)))
		s.end()
		if err != nil {
			return err
		}
		p.contHash[string(mustJSON(c))] = core.HashBytes(out)
		p.contHash[string(mustJSON(w))] = core.HashBytes(wout)
	}
	p.m["core.cont_cold_ms"] = median(cold)
	p.m["core.cont_warm_ms"] = median(warm)
	p.contWarmMS = median(warm)
	return nil
}

// trace: the shielded reference machine with a 32k-record-per-CPU
// trace buffer (the attributed RCIM runs' size). Records per virtual
// second is a count. AppendSince is timed at full rings, asking for one
// RCIM period's worth of records, as the attributor does per sample.
// Attribution cost per sample is RunRCIM with Attribute on minus off.
func (p *probes) trace(root span) error {
	sys, err := core.BuildReference(core.RefShielded, p.seed, nil)
	if err != nil {
		return err
	}
	buf := trace.NewBuffer(1 << 15)
	sys.K.Trace = buf
	eng := sys.K.Eng
	eng.Run(refBoot)
	seq0, t0 := buf.Seq(), eng.Now()
	s := root.child("sim.Engine.Run traced")
	for buf.Dropped() == 0 && eng.Now() < refBoot+sim.Time(10*sim.Second) {
		eng.Run(eng.Now().Add(10 * sim.Millisecond))
	}
	s.end()
	if buf.Dropped() == 0 {
		return fmt.Errorf("trace rings never filled")
	}
	perVS := float64(buf.Seq()-seq0) / eng.Now().Sub(t0).Seconds()
	p.m["trace.records_per_vsec"] = perVS
	k := uint64(perVS/1000) + 1
	scratch := make([]trace.Record, 0, 4*k)
	const calls = 2_000
	s = root.child("trace.AppendSince")
	start := time.Now()
	for i := 0; i < calls; i++ {
		scratch, _ = buf.AppendSince(scratch[:0], buf.Seq()-k)
	}
	p.m["trace.append_since_us"] = float64(time.Since(start)) / 1e3 / calls
	s.end()
	p.e.t.check(uint64(len(scratch)) == k, "AppendSince returned %d records, want %d", len(scratch), k)

	cfg := core.DefaultRCIM(kernel.RedHawk14(2, 2.0))
	cfg.Samples = 6_250 // one attrib-causes replication at scale 0.5
	cfg.Seed = p.seed
	cfg.Replications = 1
	var off, on []float64
	for i := 0; i < 3; i++ {
		for _, attribute := range []bool{false, true} {
			cfg.Attribute = attribute
			s := root.child(fmt.Sprintf("core.RunRCIM attribute=%v", attribute))
			t0 := time.Now()
			res := core.RunRCIM(cfg)
			el := float64(time.Since(t0))
			s.end()
			if attribute {
				on = append(on, el)
				p.e.t.check(res.Attribution.LostRecords == 0, "attributed RCIM lost %d trace records", res.Attribution.LostRecords)
			} else {
				off = append(off, el)
			}
		}
	}
	p.m["trace.attrib_ns_per_sample"] = (median(on) - median(off)) / float64(cfg.Samples)
	return nil
}

// snapshot: encode and decode of the booted shielded reference
// machine's image, and the content-addressed blob store's Get and Put
// on a memory-only and a directory-backed store.
func (p *probes) snapshot(root span) error {
	sys, _, _, err := bootShielded(p.seed, nil, root)
	if err != nil {
		return err
	}
	var enc, dec []float64
	var img []byte
	for i := 0; i < 9; i++ {
		s := root.child("kernel.Snapshot")
		t0 := time.Now()
		img, err = sys.K.Snapshot()
		enc = append(enc, float64(time.Since(t0))/1e3)
		s.end()
		if err != nil {
			return err
		}
	}
	p.m["snapshot.encode_us"] = median(enc)
	p.m["snapshot.image_bytes"] = float64(len(img))

	sc, err := core.ResolveScenario(core.ScenarioRefShielded, 0, p.seed, 1)
	if err != nil {
		return err
	}
	_, coreImg, err := core.RunContinuationCold(sc, nil)
	if err != nil {
		return err
	}
	p.e.t.check(bytes.Equal(img, coreImg), "post-boot image at %v differs from core's; has the boot horizon moved?", refBoot)

	for i := 0; i < 9; i++ {
		fresh, err := core.BuildReference(core.RefShielded, p.seed, nil)
		if err != nil {
			return err
		}
		s := root.child("kernel.RestoreImage")
		t0 := time.Now()
		err = fresh.K.RestoreImage(img)
		dec = append(dec, float64(time.Since(t0))/1e3)
		s.end()
		if err != nil {
			return err
		}
	}
	p.m["snapshot.decode_us"] = median(dec)

	const blobs, gets = 64, 20_000
	keys := make([]string, blobs)
	for i := range keys {
		keys[i] = core.HashBytes([]byte(fmt.Sprint("probe-blob-", i)))
	}
	mem, err := snapshot.NewStore("")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.e.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := snapshot.NewStore(dir)
	if err != nil {
		return err
	}
	for _, st := range []struct {
		name  string
		store *snapshot.Store
	}{{"snapshot.store_put_us", mem}, {"snapshot.store_put_disk_us", disk}} {
		s := root.child("snapshot.Store.Put")
		t0 := time.Now()
		for _, k := range keys {
			if err := st.store.Put(k, img); err != nil {
				return err
			}
		}
		p.m[st.name] = float64(time.Since(t0)) / 1e3 / blobs
		s.end()
	}
	s := root.child("snapshot.Store.Get")
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if _, ok := mem.Get(keys[i%blobs]); !ok {
			return fmt.Errorf("memory store lost %s", keys[i%blobs])
		}
	}
	p.m["snapshot.store_get_ns"] = float64(time.Since(t0)) / gets
	s.end()
	reopened, err := snapshot.NewStore(dir)
	if err != nil {
		return err
	}
	s = root.child("snapshot.Store.Get disk")
	t0 = time.Now()
	for _, k := range keys {
		got, ok := reopened.Get(k)
		if !p.e.t.check(ok && bytes.Equal(got, img), "disk store: blob %s missing or changed", k) {
			break
		}
	}
	p.m["snapshot.store_get_disk_us"] = float64(time.Since(t0)) / 1e3 / blobs
	s.end()
	return nil
}

// simd: a fresh memory-only server, one connection, a fixed script —
// a cold miss per probe seed, a warm miss per seed, then five hits per
// warm window — with latency split by cache tier and the server's own
// counters at the end. Every body must equal the core probe's direct
// result for the same scenario.
func (p *probes) simd(root span) error {
	srv, err := startServer(p.e)
	if err != nil {
		return err
	}
	defer srv.kill()
	c := newClient(srv.addr)
	defer c.hc.CloseIdleConnections()
	tiers := []struct {
		metric, cache  string
		runFor, rounds int
	}{
		{"simd.cold_miss_p50_ms", simd.CacheMiss, 5, 1},
		{"simd.warm_miss_p50_ms", simd.CacheMiss, 6, 1},
		{"simd.hit_p50_ms", simd.CacheHit, 6, 5},
	}
	for _, tier := range tiers {
		var lat []float64
		for r := 0; r < tier.rounds; r++ {
			for k := 0; k < probeConts; k++ {
				body := mustJSON(p.cont(k, tier.runFor))
				s := root.child("simd." + tier.cache)
				t0 := time.Now()
				rep, err := c.scenario(body)
				lat = append(lat, durMS(time.Since(t0)))
				s.end()
				if err != nil {
					return err
				}
				got := core.HashBytes(rep.body)
				p.e.t.check(rep.status == http.StatusOK && rep.cache == tier.cache && rep.hash == got && got == p.contHash[string(body)],
					"simd probe %s: status %d cache %q hash %s, want %s from core", body, rep.status, rep.cache, got, p.contHash[string(body)])
			}
		}
		p.m[tier.metric] = median(lat)
	}
	p.m["simd.http_overhead_ms"] = p.m["simd.warm_miss_p50_ms"] - p.contWarmMS
	st, err := c.stats()
	if err != nil {
		return err
	}
	p.m["simd.hit_frac"] = float64(st.Hits) / float64(st.Hits+st.Misses+st.Joins)
	p.m["simd.warm_frac"] = float64(st.WarmStarts) / float64(st.WarmStarts+st.ColdBoots)
	p.m["simd.resident_blobs"] = float64(st.ResidentBlobs)
	p.m["simd.resident_images"] = float64(st.ResidentImages)
	return srv.stop()
}
