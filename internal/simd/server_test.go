package simd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// testServer builds a server, optionally substituting execute, and
// returns it with an httptest front end. Drain/Close are registered as
// cleanups in reverse order so in-flight handlers finish first.
func testServer(t *testing.T, cfg Config, execute func(core.Scenario, *sim.EventPool) ([]byte, error)) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if execute != nil {
		srv.execute = execute
	}
	srv.start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(srv.Drain)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, ts *httptest.Server, path string, req ScenarioRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCachedRerequestIsByteIdentical: the same scenario POSTed twice
// returns byte-identical bytes, the second from the cache with
// X-Simd-Cache: hit, and both matching the serial in-process oracle.
func TestCachedRerequestIsByteIdentical(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2}, nil)
	req := ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 7, RunForMS: 10}

	first := post(t, ts, "/v1/scenarios?wait=1", req)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first POST status %d", first.StatusCode)
	}
	if c := first.Header.Get("X-Simd-Cache"); c != CacheMiss {
		t.Fatalf("first POST cache %q, want miss", c)
	}
	firstBody := readAll(t, first)

	second := post(t, ts, "/v1/scenarios?wait=1", req)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second POST status %d", second.StatusCode)
	}
	if c := second.Header.Get("X-Simd-Cache"); c != CacheHit {
		t.Fatalf("second POST cache %q, want hit", c)
	}
	secondBody := readAll(t, second)
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("cached re-request returned different bytes")
	}

	sc, err := core.ResolveScenario(req.Figure, req.Scale, req.Seed, req.RunForMS)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.RunScenario(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstBody, oracle) {
		t.Fatalf("served bytes diverge from serial oracle:\nserved: %s\noracle: %s", firstBody, oracle)
	}
	if h := second.Header.Get("X-Simd-Result-Hash"); h != core.HashBytes(oracle) {
		t.Fatalf("result hash header %q, want %q", h, core.HashBytes(oracle))
	}
}

// TestInflightJoin: a duplicate POSTed while the first identical
// scenario is still running coalesces onto it (cache "join") and both
// observers read the same bytes from one execution.
func TestInflightJoin(t *testing.T) {
	release := make(chan struct{})
	var runs int
	srv, ts := testServer(t, Config{Workers: 1}, func(sc core.Scenario, pool *sim.EventPool) ([]byte, error) {
		runs++ // single worker: no lock needed
		<-release
		return []byte("payload:" + sc.Figure), nil
	})
	req := ScenarioRequest{Figure: core.ScenarioRefShielded, Seed: 3, RunForMS: 5}

	type res struct {
		cache string
		body  []byte
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp := post(t, ts, "/v1/scenarios?wait=1", req)
			results <- res{resp.Header.Get("X-Simd-Cache"), readAll(t, resp)}
		}()
	}
	// Wait until one is running and the other has joined it.
	for deadline := time.Now().Add(5 * time.Second); srv.joins.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("duplicate never joined the in-flight job")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	got := map[string]res{}
	for i := 0; i < 2; i++ {
		r := <-results
		got[r.cache] = r
	}
	if _, ok := got[CacheMiss]; !ok {
		t.Fatalf("no miss among dispositions %v", got)
	}
	if _, ok := got[CacheJoin]; !ok {
		t.Fatalf("no join among dispositions %v", got)
	}
	if !bytes.Equal(got[CacheMiss].body, got[CacheJoin].body) {
		t.Fatal("joiner read different bytes than the runner")
	}
	if runs != 1 {
		t.Fatalf("scenario executed %d times, want 1", runs)
	}
}

// TestQueueFullBackpressure: with the one worker busy and the queue
// full, the next distinct scenario is refused with 429 + Retry-After —
// admission never blocks the client.
func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	srv, ts := testServer(t, Config{Workers: 1, QueueDepth: 1}, func(core.Scenario, *sim.EventPool) ([]byte, error) {
		<-release
		return []byte("x"), nil
	})
	defer close(release)

	// First request occupies the worker; second sits in the queue.
	for i, fig := range []string{core.ScenarioRefStock, core.ScenarioRefShielded} {
		resp := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: fig, Seed: uint64(i), RunForMS: 5})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("request %d status %d, want 202", i, resp.StatusCode)
		}
		readAll(t, resp)
	}
	// Give the worker a moment to dequeue the first job so the queue
	// genuinely holds the second.
	for deadline := time.Now().Add(5 * time.Second); len(srv.queue) < 1; {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 99, RunForMS: 5})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	readAll(t, resp)
	if srv.Stats().RejectedQueue < 1 {
		t.Fatal("rejection not counted")
	}
}

// TestBudgetRefusal: a scenario whose virtual-ms cost exceeds the
// configured budget gets a 422 carrying the budget numbers, and nothing
// is enqueued or run. A cost equal to the budget is admitted, and a
// budget of 0 is unlimited.
func TestBudgetRefusal(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1, BudgetVirtualMS: 100}, func(sc core.Scenario, pool *sim.EventPool) ([]byte, error) {
		if sc.RunFor >= 500*sim.Millisecond {
			t.Error("over-budget scenario reached a worker")
		}
		return []byte("ok"), nil
	})
	resp := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 1, RunForMS: 500})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(readAll(t, resp), &eb); err != nil {
		t.Fatal(err)
	}
	want := errorBody{Error: "runner: budget exceeded: requested 540 virtual-ms, budget 100", Requested: 540, Budget: 100}
	if eb != want {
		t.Fatalf("budget body %+v, want %+v", eb, want)
	}
	if srv.Stats().RejectedBudget != 1 {
		t.Fatal("budget rejection not counted")
	}

	// Within budget, and exactly at it (40 ms boot + 60 ms window),
	// passes admission.
	for _, runFor := range []int{10, 60} {
		ok := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 1, RunForMS: runFor})
		if ok.StatusCode != http.StatusAccepted {
			t.Fatalf("run_for_ms=%d: within-budget status %d, want 202", runFor, ok.StatusCode)
		}
		readAll(t, ok)
	}

	// No budget admits the request the budgeted server refused.
	_, unlimited := testServer(t, Config{Workers: 1}, func(core.Scenario, *sim.EventPool) ([]byte, error) {
		return []byte("ok"), nil
	})
	ok := post(t, unlimited, "/v1/scenarios?wait=1", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 1, RunForMS: 500})
	if got := string(readAll(t, ok)); ok.StatusCode != http.StatusOK || got != "ok" {
		t.Fatalf("unlimited budget: status %d body %q, want 200 ok", ok.StatusCode, got)
	}
}

// TestOversizedBodyRefused: a request body past maxRequestBytes is
// refused with 413 and the JSON error body instead of being buffered
// whole, and the server goes on serving normal requests.
func TestOversizedBodyRefused(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1}, func(core.Scenario, *sim.EventPool) ([]byte, error) {
		return []byte("ok"), nil
	})
	huge := `{"figure":"` + strings.Repeat("a", 1<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(readAll(t, resp), &eb); err != nil {
		t.Fatalf("413 body is not the JSON error shape: %v", err)
	}
	if !strings.Contains(eb.Error, fmt.Sprint(maxRequestBytes)) {
		t.Fatalf("413 error %q does not name the %d-byte limit", eb.Error, maxRequestBytes)
	}

	ok := post(t, ts, "/v1/scenarios?wait=1", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 1, RunForMS: 10})
	if got := string(readAll(t, ok)); ok.StatusCode != http.StatusOK || got != "ok" {
		t.Fatalf("normal request after a refused one: status %d body %q", ok.StatusCode, got)
	}
}

// TestDrainFinishesInflight: Drain refuses new work with 503 but waits
// for queued and running jobs to complete — no job is abandoned.
func TestDrainFinishesInflight(t *testing.T) {
	release := make(chan struct{})
	srv, err := newServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.execute = func(core.Scenario, *sim.EventPool) ([]byte, error) {
		<-release
		return []byte("drained"), nil
	}
	srv.start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 5, RunForMS: 5})
	var st JobStatus
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	// Drain must block while the job is in flight.
	select {
	case <-drained:
		t.Fatal("Drain returned with a job still running")
	case <-time.After(50 * time.Millisecond):
	}
	// New work is refused while draining.
	for deadline := time.Now().Add(5 * time.Second); ; {
		r := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefShielded, Seed: 5, RunForMS: 5})
		code := r.StatusCode
		readAll(t, r)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still admitting (status %d)", code)
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after jobs finished")
	}

	// The in-flight job finished with its result intact.
	r := ts.Client()
	jr, err := r.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("post-drain result status %d", jr.StatusCode)
	}
	if body := readAll(t, jr); string(body) != "drained" {
		t.Fatalf("post-drain result %q", body)
	}
	if !srv.Stats().Draining {
		t.Fatal("stats do not report draining")
	}
}

// TestJobLifecycleAndErrors covers the polling API: 202 while queued,
// status/result endpoints, 404s, 400s on malformed requests, and a
// failing scenario surfacing as state=failed + 500 on result.
func TestJobLifecycleAndErrors(t *testing.T) {
	fail := fmt.Errorf("synthetic scenario failure")
	_, ts := testServer(t, Config{Workers: 1}, func(sc core.Scenario, pool *sim.EventPool) ([]byte, error) {
		if sc.Seed == 666 {
			return nil, fail
		}
		return []byte("ok:" + sc.Figure), nil
	})

	// Malformed body and unknown figure.
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", resp.StatusCode)
	}
	readAll(t, resp)
	resp = post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: "fig99", Scale: 1, Seed: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown figure status %d", resp.StatusCode)
	}
	readAll(t, resp)

	// Unknown job IDs.
	for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/result", "/v1/jobs/job-999/events"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, r.StatusCode)
		}
		readAll(t, r)
	}

	// Failing job: poll to terminal state, result is 500.
	resp = post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 666, RunForMS: 5})
	var st JobStatus
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readAll(t, r), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateFailed {
			break
		}
		if st.State == StateDone {
			t.Fatal("failing scenario reported done")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(st.Error, "synthetic") {
		t.Fatalf("failed status error %q", st.Error)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed job result status %d, want 500", r.StatusCode)
	}
	readAll(t, r)

	// Figures catalogue.
	r, err = http.Get(ts.URL + "/v1/figures")
	if err != nil {
		t.Fatal(err)
	}
	var figs []string
	if err := json.Unmarshal(readAll(t, r), &figs); err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(core.ServedScenarios()) {
		t.Fatalf("figures catalogue %v", figs)
	}
}

// TestEventsStream: the SSE endpoint emits state transitions ending in
// the terminal state, as parseable event/data frames.
func TestEventsStream(t *testing.T) {
	release := make(chan struct{})
	_, ts := testServer(t, Config{Workers: 1}, func(core.Scenario, *sim.EventPool) ([]byte, error) {
		<-release
		return []byte("streamed"), nil
	})
	resp := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 8, RunForMS: 5})
	var st JobStatus
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}

	es, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	close(release)

	var states []JobState
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobStatus
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("unparseable SSE data %q: %v", line, err)
		}
		states = append(states, ev.State)
	}
	if len(states) == 0 || states[len(states)-1] != StateDone {
		t.Fatalf("SSE states %v, want trailing done", states)
	}
}

// TestWarmStartSharesBootImage: two continuation windows over the same
// (machine, seed) run one cold boot and one warm start, and the warm
// result is byte-identical to the serial cold oracle.
func TestWarmStartSharesBootImage(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1}, nil)
	for _, runFor := range []int{10, 25} {
		resp := post(t, ts, "/v1/scenarios?wait=1", ScenarioRequest{Figure: core.ScenarioRefShielded, Seed: 11, RunForMS: runFor})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run_for=%d status %d", runFor, resp.StatusCode)
		}
		body := readAll(t, resp)
		sc, _ := core.ResolveScenario(core.ScenarioRefShielded, 0, 11, runFor)
		oracle, err := core.RunScenario(sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, oracle) {
			t.Fatalf("run_for=%d served bytes diverge from cold oracle", runFor)
		}
	}
	stats := srv.Stats()
	if stats.ColdBoots != 1 || stats.WarmStarts != 1 {
		t.Fatalf("cold=%d warm=%d, want exactly one of each", stats.ColdBoots, stats.WarmStarts)
	}
	if stats.ResidentImages != 1 {
		t.Fatalf("resident images %d, want 1", stats.ResidentImages)
	}
}

// TestStatsAndHealth: healthz flips to 503 on drain; stats counters
// move with traffic.
func TestStatsAndHealth(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1}, nil)
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", r.StatusCode)
	}
	readAll(t, r)

	resp := post(t, ts, "/v1/scenarios?wait=1", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 2, RunForMS: 5})
	readAll(t, resp)
	var stats Stats
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readAll(t, sr), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 1 || stats.Completed != 1 || stats.ResidentBlobs != 1 {
		t.Fatalf("stats after one run: %+v", stats)
	}

	srv.Drain()
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", hr.StatusCode)
	}
	readAll(t, hr)
}

// TestPanickingScenarioFailsOnlyItsJob: a scenario that panics on the
// only worker fails its own job with an error naming the panic value;
// the worker survives on a fresh event pool, the failed key is not left
// in flight (a retry runs again instead of joining a dead job), other
// requests complete, and Drain returns normally.
func TestPanickingScenarioFailsOnlyItsJob(t *testing.T) {
	var (
		mu    sync.Mutex
		pools []*sim.EventPool
	)
	srv, ts := testServer(t, Config{Workers: 1}, func(sc core.Scenario, pool *sim.EventPool) ([]byte, error) {
		mu.Lock()
		pools = append(pools, pool)
		mu.Unlock()
		if sc.Seed == 666 {
			panic("boom")
		}
		return []byte(fmt.Sprintf("seed %d", sc.Seed)), nil
	})
	bad := ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 666, RunForMS: 5}
	for attempt := 0; attempt < 2; attempt++ {
		resp := post(t, ts, "/v1/scenarios?wait=1", bad)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d: panicking scenario status %d, want 500", attempt, resp.StatusCode)
		}
		if !strings.Contains(string(body), "panicked: boom") {
			t.Fatalf("attempt %d: error %q does not name the panic value", attempt, body)
		}
	}

	resp := post(t, ts, "/v1/scenarios?wait=1", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 7, RunForMS: 5})
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || string(body) != "seed 7" {
		t.Fatalf("follow-up request: status %d body %q", resp.StatusCode, body)
	}
	mu.Lock()
	if len(pools) != 3 || pools[1] == pools[0] || pools[2] == pools[1] {
		t.Error("worker reused the event pool of a panicked run")
	}
	mu.Unlock()
	if st := srv.Stats(); st.Failed != 2 || st.Completed != 1 {
		t.Fatalf("stats failed=%d completed=%d, want 2 and 1", st.Failed, st.Completed)
	}

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}
}

// TestCacheWriteFailureStillServes: when the result and image stores
// cannot write (their directories replaced by regular files, so every
// disk Put fails), a continuation still completes with the correct
// bytes, uncached on disk.
func TestCacheWriteFailureStillServes(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"results", "images"} {
		p := filepath.Join(dir, sub)
		if err := os.RemoveAll(p); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv.start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(srv.Drain)
	t.Cleanup(ts.Close)

	req := ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 3, RunForMS: 5}
	resp := post(t, ts, "/v1/scenarios?wait=1", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 despite the failing store", resp.StatusCode, body)
	}
	sc, err := core.ResolveScenario(req.Figure, req.Scale, req.Seed, req.RunForMS)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.RunScenario(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h := resp.Header.Get("X-Simd-Result-Hash"); h != core.HashBytes(oracle) || !bytes.Equal(body, oracle) {
		t.Fatalf("result hash header %q, want %q", h, core.HashBytes(oracle))
	}
}
