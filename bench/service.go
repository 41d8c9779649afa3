//go:build linux

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simd"
)

// The simd workloads drive the real simd binary over HTTP with an open
// loop (seeded Poisson arrivals, timed from each request's due time)
// and a closed loop on both connections. The two loops alternate in
// slices over the whole run, each against its own simd process. Load
// comes from one process with at most two connections busy at a time:
// the 2 CPUs the benchmark is sized for.
const (
	connections = 2
	// roundLen is one open-loop slice plus one closed-loop slice. On a
	// shared host the CPU's speed can swing twofold within seconds, so
	// a loop that ran as one contiguous half of the run would see a
	// different host every run. In short alternating slices each loop
	// averages over the whole run.
	roundLen = 2 * time.Second
	// recheckEvery: one in this many unique requests is re-run through
	// core.RunScenario after the timed window, untimed.
	recheckEvery = 50
	// hotRate and churnRate are the open-loop arrival rates (req/s).
	hotRate   = 2000
	churnRate = 300
	// hotMissFrac of simd-hot arrivals are fresh continuation windows
	// over the hot seeds: warm misses.
	hotMissFrac = 0.05
	// hotZipf is the popularity skew over the hot set's ranks.
	hotZipf = 1.1
	// Each simd-churn seed gets one cold request and churnWindows
	// continuation windows, due at least churnGap later so the post-boot
	// image is normally stored first: 4 of every 5 requests warm-start.
	churnWindows = 4
	churnGap     = 60 * sim.Millisecond
	churnSpread  = 240 * sim.Millisecond
)

// server is a running simd process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stdout hits EOF
	mu      sync.Mutex
	done    bool
}

// startServer launches simd with its default memory-only store on an
// ephemeral port and waits until it prints its listening address.
func startServer(e *env) (*server, error) {
	cmd := childCommand(e.simd, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(connections),
		"-figure-workers", fmt.Sprint(figureWorkers))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start simd: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "simd listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.kill()
			return nil, errors.New("simd exited before listening")
		}
		s.addr = a
		return s, nil
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("simd did not start listening within 30 s")
	}
}

// stop drains the server with SIGTERM, as an operator would. A server
// that does not exit cleanly within 30 s is killed and reported as an
// error.
func (s *server) stop() error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return errors.New("simd already stopped")
	}
	s.done = true
	s.mu.Unlock()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	hung := time.AfterFunc(30*time.Second, func() { _ = s.cmd.Process.Kill() })
	<-s.drained
	err := s.cmd.Wait()
	if !hung.Stop() {
		return errors.New("simd did not drain within 30 s")
	}
	if err != nil {
		return fmt.Errorf("simd exit: %w", err)
	}
	return nil
}

// kill ends the server now and waits for it; a no-op once stopped.
func (s *server) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	_ = s.cmd.Process.Kill()
	<-s.drained
	_ = s.cmd.Wait()
}

// client is one keep-alive connection to the server.
type client struct {
	url string
	hc  *http.Client
}

func newClient(addr string) *client {
	return &client{
		url: "http://" + addr,
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
}

type reply struct {
	status      int
	cache, hash string
	body        []byte
}

// scenario POSTs one scenario and waits for its result bytes.
func (c *client) scenario(body []byte) (reply, error) {
	resp, err := c.hc.Post(c.url+"/v1/scenarios?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Simd-Cache"),
		hash:   resp.Header.Get("X-Simd-Result-Hash"),
		body:   b,
	}, nil
}

func (c *client) stats() (simd.Stats, error) {
	var st simd.Stats
	resp, err := c.hc.Get(c.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// request is one scenario request with what the benchmark expects back.
type request struct {
	due  time.Duration // open loop: offset from the window's start
	sc   simd.ScenarioRequest
	body []byte
	cost float64 // virtual seconds (core.Scenario.CostVirtualMS)
	kind string  // "hot", "warm-miss", "cold" or "window"
	want string  // oracle result hash; hot requests only
}

func newRequest(kind string, sc simd.ScenarioRequest) (request, error) {
	resolved, err := core.ResolveScenario(sc.Figure, sc.Scale, sc.Seed, sc.RunForMS)
	if err != nil {
		return request{}, err
	}
	return request{sc: sc, body: mustJSON(sc), cost: float64(resolved.CostVirtualMS()) / 1e3, kind: kind}, nil
}

// mustJSON encodes a request body; plain structs cannot fail to encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// continuation is a reference-machine continuation request; i picks
// the machine, alternating ref-stock and ref-shielded.
func continuation(i uint64, seed uint64, runForMS int) simd.ScenarioRequest {
	fig := core.ScenarioRefStock
	if i%2 == 1 {
		fig = core.ScenarioRefShielded
	}
	return simd.ScenarioRequest{Figure: fig, Seed: seed, RunForMS: runForMS}
}

// endpoint is one running simd process with a client per connection.
type endpoint struct {
	srv   *server
	conns [connections]*client
}

func startEndpoint(e *env) (*endpoint, error) {
	srv, err := startServer(e)
	if err != nil {
		return nil, err
	}
	ep := &endpoint{srv: srv}
	for i := range ep.conns {
		ep.conns[i] = newClient(srv.addr)
	}
	return ep, nil
}

// stop checks the server's own counters and drains it.
func (ep *endpoint) stop(t *tally, role string) error {
	st, err := ep.conns[0].stats()
	if err != nil {
		ep.close()
		return err
	}
	t.check(st.Failed == 0 && st.RejectedQueue == 0 && st.RejectedBudget == 0,
		"%s server counted failed %d, rejected_queue %d, rejected_budget %d", role, st.Failed, st.RejectedQueue, st.RejectedBudget)
	fmt.Printf("simd %s stats: %+v\n", role, st)
	for _, c := range ep.conns {
		c.hc.CloseIdleConnections()
	}
	return ep.srv.stop()
}

func (ep *endpoint) close() {
	for _, c := range ep.conns {
		c.hc.CloseIdleConnections()
	}
	ep.srv.kill()
}

// service is a set-up simd workload: two servers and the workload's
// request mix. The open loop runs against open and the closed loop
// against capacity, so the open loop's CPU and memory readings are
// free of the closed loop's load.
type service struct {
	t              *tally
	open, capacity *endpoint

	seed uint64
	rng  *sim.RNG
	// schedule builds the open-loop arrivals for a window of length d;
	// closedNext returns the request generator of one closed-loop
	// connection.
	schedule   func(d time.Duration) ([]request, error)
	closedNext func() func() (request, error)

	ops      atomic.Int64 // span op ids
	unique   atomic.Int64 // unique requests sent, for recheck sampling
	mu       sync.Mutex
	rechecks []recheck
}

type recheck struct {
	sc   simd.ScenarioRequest
	hash string
}

func newService(e *env, stream uint64) (*service, error) {
	s := &service{t: e.t, seed: sim.DeriveSeed(e.seed, stream)}
	s.rng = sim.NewRNG(s.seed)
	var err error
	if s.open, err = startEndpoint(e); err != nil {
		return nil, err
	}
	if s.capacity, err = startEndpoint(e); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) endpoints() []*endpoint { return []*endpoint{s.open, s.capacity} }

// setupSimdHot: read-mostly traffic where most work is shared. A
// 12-key hot set (8 continuations, then fig5, fig6, fig7 and
// attrib-causes at scale 0.01, Zipf(1.1) over ranks in that order) is
// computed serially as the oracle and prewarmed; 5% of arrivals are
// warm misses. It exercises HTTP, admission, ResolveScenario and
// Store.Get; the simulation hardly runs. The closed loop sends hot-set
// requests only, so its throughput is that of the cache-hit path.
func setupSimdHot(e *env) (instance, error) {
	s, err := newService(e, streamSimdHot)
	if err != nil {
		return nil, err
	}
	hot, err := s.prewarm()
	if err != nil {
		s.close()
		return nil, err
	}
	cdf := zipfCDF(len(hot), hotZipf)
	nextRunFor := 21 // hot continuations run 20 ms; every warm miss is a new window
	s.schedule = func(d time.Duration) ([]request, error) {
		var reqs []request
		misses := 0
		mean := sim.Second / hotRate
		for t := s.rng.Exp(mean); time.Duration(t) < d; t += s.rng.Exp(mean) {
			r := request{due: time.Duration(t), kind: "warm-miss"}
			if s.rng.Float64() >= hotMissFrac {
				r = hot[pickZipf(cdf, s.rng.Float64())]
				r.due = time.Duration(t)
			} else {
				misses++
			}
			reqs = append(reqs, r)
		}
		// Give the warm misses distinct (seed, window) pairs drawn in a
		// shuffled order, so the mean window length is the same from the
		// first arrival to the last.
		per := (misses + 7) / 8
		slots := make([][2]int, 0, 8*per)
		for j := 0; j < 8; j++ {
			for k := 0; k < per; k++ {
				slots = append(slots, [2]int{j, nextRunFor + k})
			}
		}
		nextRunFor += per
		for i := len(slots) - 1; i > 0; i-- {
			k := s.rng.Intn(i + 1)
			slots[i], slots[k] = slots[k], slots[i]
		}
		for i := range reqs {
			if reqs[i].kind != "warm-miss" {
				continue
			}
			slot := slots[0]
			slots = slots[1:]
			h := hot[slot[0]].sc
			r, err := newRequest("warm-miss", continuation(uint64(slot[0]), h.Seed, slot[1]))
			if err != nil {
				return nil, err
			}
			r.due = reqs[i].due
			reqs[i] = r
		}
		return reqs, nil
	}
	s.closedNext = func() func() (request, error) {
		rng := sim.NewRNG(s.rng.Uint64())
		return func() (request, error) { return hot[pickZipf(cdf, rng.Float64())], nil }
	}
	return s, nil
}

// prewarm computes the hot set's oracle bytes serially in-process,
// sends each hot request to each server once (a miss that runs it) and
// once more (a hit), and checks every reply against the oracle.
func (s *service) prewarm() ([]request, error) {
	var hot []request
	for j := uint64(0); j < 8; j++ {
		r, err := newRequest("hot", continuation(j, sim.DeriveSeed(s.seed, j), 20))
		if err != nil {
			return nil, err
		}
		hot = append(hot, r)
	}
	for i, fig := range []string{"fig5", "fig6", "fig7", "attrib-causes"} {
		r, err := newRequest("hot", simd.ScenarioRequest{Figure: fig, Scale: 0.01, Seed: sim.DeriveSeed(s.seed, uint64(8+i))})
		if err != nil {
			return nil, err
		}
		hot = append(hot, r)
	}
	for i := range hot {
		sc, err := core.ResolveScenario(hot[i].sc.Figure, hot[i].sc.Scale, hot[i].sc.Seed, hot[i].sc.RunForMS)
		if err != nil {
			return nil, err
		}
		out, err := core.RunScenario(sc, figureWorkers)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", hot[i].sc.Figure, err)
		}
		hot[i].want = core.HashBytes(out)
	}
	for _, ep := range s.endpoints() {
		for _, cache := range []string{simd.CacheMiss, simd.CacheHit} {
			for _, r := range hot {
				rep, err := ep.conns[0].scenario(r.body)
				if err != nil {
					return nil, err
				}
				s.verify(r, rep, cache)
			}
		}
	}
	return hot, nil
}

// setupSimdChurn: write-heavy traffic with no result sharing. Every
// request is unique: each new seed (alternating ref-stock and
// ref-shielded) gets a cold request, then four continuation windows of
// 2-10 ms that warm-start from its stored post-boot image. It exercises
// boot, snapshot encode/decode, Store.Put and unbounded store growth.
// The store is memory-only: with a cache directory, the guest kernel's
// dirty-page writeback makes request cost swing twofold between runs
// on a small VM, so the disk tier is measured by the store probes.
func setupSimdChurn(e *env) (instance, error) {
	s, err := newService(e, streamSimdChurn)
	if err != nil {
		return nil, err
	}
	var next atomic.Uint64
	// group returns one new seed's cold request and its windows.
	group := func(rng *sim.RNG) ([]request, error) {
		k := next.Add(1)
		seed := sim.DeriveSeed(s.seed, k)
		cold, err := newRequest("cold", continuation(k, seed, 1))
		if err != nil {
			return nil, err
		}
		out := []request{cold}
		lens := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
		for w := 0; w < churnWindows; w++ {
			i := w + rng.Intn(len(lens)-w)
			lens[w], lens[i] = lens[i], lens[w]
			r, err := newRequest("window", continuation(k, seed, lens[w]))
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	s.schedule = func(d time.Duration) ([]request, error) {
		var reqs []request
		mean := sim.Second * (1 + churnWindows) / churnRate
		last := sim.Duration(d) - churnGap - churnSpread
		for t := s.rng.Exp(mean); t < last; t += s.rng.Exp(mean) {
			g, err := group(s.rng)
			if err != nil {
				return nil, err
			}
			g[0].due = time.Duration(t)
			for i := 1; i < len(g); i++ {
				g[i].due = time.Duration(t + churnGap + s.rng.Uniform(0, churnSpread))
			}
			reqs = append(reqs, g...)
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
		return reqs, nil
	}
	s.closedNext = func() func() (request, error) {
		rng := sim.NewRNG(s.rng.Uint64())
		var pending []request
		return func() (request, error) {
			if len(pending) == 0 {
				g, err := group(rng)
				if err != nil {
					return request{}, err
				}
				pending = g
			}
			r := pending[0]
			pending = pending[1:]
			return r, nil
		}
	}
	// Warm up every connection and the cold and warm paths before timing.
	for _, ep := range s.endpoints() {
		for _, c := range ep.conns {
			g, err := group(s.rng)
			if err != nil {
				s.close()
				return nil, err
			}
			for _, r := range g {
				rep, err := c.scenario(r.body)
				if err != nil {
					s.close()
					return nil, err
				}
				s.verify(r, rep, simd.CacheMiss)
			}
		}
	}
	return s, nil
}

// verify checks one reply: status, body against its integrity header,
// cache disposition, and the oracle hash where one is known. It samples
// unique requests for the untimed re-run.
func (s *service) verify(r request, rep reply, cache string) bool {
	if !s.t.check(rep.status == http.StatusOK, "%s %s: status %d: %s", r.kind, r.body, rep.status, bytes.TrimSpace(rep.body)) {
		return false
	}
	got := core.HashBytes(rep.body)
	ok := s.t.check(got == rep.hash, "%s %s: body hashes to %s, header says %s", r.kind, r.body, got, rep.hash)
	ok = s.t.check(rep.cache == cache, "%s %s: X-Simd-Cache %q, want %q", r.kind, r.body, rep.cache, cache) && ok
	if r.want != "" {
		ok = s.t.check(got == r.want, "%s %s: result %s, oracle %s", r.kind, r.body, got, r.want) && ok
	} else if s.unique.Add(1)%recheckEvery == 0 {
		s.mu.Lock()
		s.rechecks = append(s.rechecks, recheck{sc: r.sc, hash: got})
		s.mu.Unlock()
	}
	return ok
}

// send issues one timed request on a connection under a span.
func (s *service) send(conn *client, r request, root span) bool {
	cache := simd.CacheMiss
	if r.kind == "hot" {
		cache = simd.CacheHit
	}
	c := root.child("simd." + r.kind)
	rep, err := conn.scenario(r.body)
	c.end()
	if !s.t.check(err == nil, "%s %s: %v", r.kind, r.body, err) {
		return false
	}
	v := root.child("bench.verify")
	ok := s.verify(r, rep, cache)
	v.end()
	return ok
}

// sample is one open-loop request's outcome.
type sample struct {
	lat   time.Duration // from due time; see openLoop
	late  time.Duration // how late the generator's timer woke
	slept bool
	sent  time.Time
}

// openLoop sends reqs at their due times over both connections to the
// open-loop server. A
// request's latency runs from its due time, so time spent waiting for a
// busy connection counts. When the sender was idle and slept until the
// due time, latency runs from the actual send instead: the sleep's
// overshoot is the generator's, and is reported separately as lateness.
// A server too slow to finish within overrun of the window's end gets
// its remaining requests counted as failed, so the run still ends.
func (s *service) openLoop(reqs []request, tr *tracer, overrun time.Duration) ([]sample, time.Time) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	var limit time.Duration
	if len(reqs) > 0 {
		limit = reqs[len(reqs)-1].due + overrun
	}
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				due := start.Add(reqs[k].due)
				if time.Since(start) > limit {
					s.t.check(false, "%s %s: not sent, open loop overran by %v", reqs[k].kind, reqs[k].body, overrun)
					out[k] = sample{lat: time.Since(due), sent: time.Now()}
					continue
				}
				slept := sleepUntil(due)
				sent := time.Now()
				root := tr.root("bench.request", s.ops.Add(1), c)
				s.send(s.open.conns[c], reqs[k], root)
				root.end()
				origin := due
				if slept {
					origin = sent
				}
				out[k] = sample{lat: time.Since(origin), late: sent.Sub(due), slept: slept, sent: sent}
			}
		}(c)
	}
	wg.Wait()
	return out, start
}

// closedLoop sends back-to-back requests on both connections to the
// closed-loop server for d. It returns the completed requests, their
// virtual seconds, and the time from the start to the last completion.
// (Completions per 100 ms are as high in the first tenths of a second
// as later, so no warm-up is discarded.)
func (s *service) closedLoop(d time.Duration, tr *tracer) (int, float64, time.Duration, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		n       int
		vs      float64
		elapsed time.Duration
		genErr  error
	)
	start := time.Now()
	for c := 0; c < connections; c++ {
		next := s.closedNext()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn, cvs := 0, 0.0
			for time.Since(start) < d {
				r, err := next()
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				root := tr.root("bench.request", s.ops.Add(1), c)
				if s.send(s.capacity.conns[c], r, root) {
					cn++
					cvs += r.cost
				}
				root.end()
			}
			mu.Lock()
			n, vs = n+cn, vs+cvs
			elapsed = max(elapsed, time.Since(start))
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return n, vs, elapsed, genErr
}

// measure alternates open-loop and closed-loop slices of equal length
// over d (see roundLen). The open loop is one schedule for the open
// half of d, a fixed amount of work cut into slices by due time, so the
// open-loop server's CPU per request and its memory high-water mark are
// taken over it. The closed slices give the throughput at capacity.
func (s *service) measure(d time.Duration, tr *tracer) (map[string]float64, error) {
	rounds := max(1, int(d/roundLen))
	slice := d / time.Duration(2*rounds)
	reqs, err := s.schedule(time.Duration(rounds) * slice)
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("no open-loop arrivals in %v", time.Duration(rounds)*slice)
	}
	parts := make([][]request, rounds)
	for _, r := range reqs {
		i := min(int(r.due/slice), rounds-1)
		r.due -= time.Duration(i) * slice
		parts[i] = append(parts[i], r)
	}

	pid := s.open.srv.cmd.Process.Pid
	var (
		samples  []sample
		cpu      time.Duration // open-loop server CPU over the open slices
		sendSpan time.Duration // from each open slice's start to its last send
		n        int           // closed-loop requests completed
		vs       float64       // and their virtual seconds
		elapsed  time.Duration // and the time they took
	)
	for _, part := range parts {
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		smp, start := s.openLoop(part, tr, 30*time.Second)
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		var span time.Duration
		for _, sm := range smp {
			span = max(span, sm.sent.Sub(start))
		}
		sendSpan += span
		samples = append(samples, smp...)

		cn, cvs, cel, err := s.closedLoop(slice, tr)
		if err != nil {
			return nil, err
		}
		n, vs, elapsed = n+cn, vs+cvs, elapsed+cel
	}
	hwm, err := procHWM(pid)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("closed loop completed no requests")
	}

	// Open-loop latency is printed, not reported: on a small VM, waking
	// an idle CPU dominates sub-millisecond latencies at these rates and
	// their run-to-run spread exceeds any useful regression bound.
	lat := make([]float64, len(samples))
	byKind := map[string][]float64{}
	var late []float64
	i := 0
	for _, part := range parts {
		for _, r := range part {
			sm := samples[i]
			lat[i] = durMS(sm.lat)
			byKind[r.kind] = append(byKind[r.kind], lat[i])
			if sm.slept {
				late = append(late, durMS(sm.late))
			}
			i++
		}
	}
	fmt.Printf("open loop: %d requests in %d slices of %v, sent %.1f req/s, generator late p99 %.3f ms, latency p50 %.3f ms p99 %.3f ms;",
		len(reqs), rounds, slice, float64(len(reqs))/sendSpan.Seconds(), percentile(late, 0.99),
		percentile(lat, 0.50), percentile(lat, 0.99))
	for _, k := range []string{"hot", "warm-miss", "cold", "window"} {
		if xs := byKind[k]; len(xs) > 0 {
			fmt.Printf(" %s p50 %.3f ms (n=%d);", k, percentile(xs, 0.5), len(xs))
		}
	}
	fmt.Printf(" closed loop: %d requests in %.3f s (%.0f req/s)\n", n, elapsed.Seconds(), float64(n)/elapsed.Seconds())
	return map[string]float64{
		"vsec_per_s":     vs / elapsed.Seconds(),
		"cpu_ms_per_req": durMS(cpu) / float64(len(reqs)),
		"max_rss_mb":     hwm,
	}, nil
}

// finish re-runs the sampled unique requests through the serial
// oracle, then checks both servers' own counters and drains them.
func (s *service) finish() error {
	for _, rc := range s.rechecks {
		sc, err := core.ResolveScenario(rc.sc.Figure, rc.sc.Scale, rc.sc.Seed, rc.sc.RunForMS)
		if err != nil {
			return err
		}
		out, err := core.RunScenario(sc, figureWorkers)
		if !s.t.check(err == nil, "recheck %+v: %v", rc.sc, err) {
			continue
		}
		got := core.HashBytes(out)
		s.t.check(got == rc.hash, "recheck %+v: served %s, oracle %s", rc.sc, rc.hash, got)
	}
	fmt.Printf("%d unique results re-run\n", len(s.rechecks))
	return errors.Join(s.open.stop(s.t, "open-loop"), s.capacity.stop(s.t, "closed-loop"))
}

func (s *service) close() {
	for _, ep := range s.endpoints() {
		if ep != nil {
			ep.close()
		}
	}
}

// zipfCDF is the cumulative Zipf(skew) distribution over ranks 1..n.
func zipfCDF(n int, skew float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -skew)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// pickZipf maps a uniform draw in [0,1) to a rank index.
func pickZipf(cdf []float64, u float64) int {
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// sleepUntil blocks until t in nanosleep(2) and reports whether it
// slept. Go timers can wake an idle process up to a millisecond late,
// which would swamp sub-millisecond latencies at these arrival rates;
// nanosleep overshoots by tens of microseconds.
func sleepUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return false
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
	return true
}
