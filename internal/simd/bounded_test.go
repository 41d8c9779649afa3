package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// fakeClock is a settable Server.now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// clockedServer is testServer with a fake clock in place of time.Now.
func clockedServer(t *testing.T, execute func(core.Scenario, *sim.EventPool) ([]byte, error)) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	srv, err := newServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	srv.execute, srv.now = execute, clock.now
	srv.start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(srv.Drain)
	t.Cleanup(ts.Close)
	return srv, ts, clock
}

// gate blocks a stub execute until release, which may be called more
// than once. A test registers release as a cleanup after the server's,
// so it runs first and a failing test leaves no handler or worker
// blocked for ts.Close and Drain to wait on.
func gate() (wait func(), release func()) {
	ch := make(chan struct{})
	var once sync.Once
	return func() { <-ch }, func() { once.Do(func() { close(ch) }) }
}

// statusOf GETs path and returns its status code.
func statusOf(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	r, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	return r.StatusCode
}

// waitFor polls cond under the server lock until it holds.
func waitFor(t *testing.T, srv *Server, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		srv.mu.Lock()
		ok := cond()
		srv.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobRoutes are the three routes that address a job by id.
func jobRoutes(id string) []string {
	return []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/result", "/v1/jobs/" + id + "/events"}
}

// TestUniqueWaitRequestsLeaveNothingBehind: 2,000 unique ?wait=1
// requests, whose replies carry no job id, leave no job, no in-flight
// entry and no goroutine behind, and each store's memory tier stays
// within its budget while results and boot images stream through it.
// Once the server drains, the goroutine count is back to where it was
// before the server started.
func TestUniqueWaitRequestsLeaveNothingBehind(t *testing.T) {
	const (
		requests     = 2000
		clients      = 8
		resultBudget = 16 << 10
		imageBudget  = 32 << 10
	)
	baseline := runtime.NumGoroutine()
	srv, err := newServer(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if srv.results, err = snapshot.NewBoundedStore("", resultBudget); err != nil {
		t.Fatal(err)
	}
	if srv.images, err = snapshot.NewBoundedStore("", imageBudget); err != nil {
		t.Fatal(err)
	}
	// The stub stores a boot image per (machine, seed) the way
	// runScenario does, so both tiers see unique traffic.
	srv.execute = func(sc core.Scenario, _ *sim.EventPool) ([]byte, error) {
		ik, err := sc.ImageKey()
		if err != nil {
			return nil, err
		}
		if err := srv.images.Put(ik, bytes.Repeat([]byte{'i'}, 1024)); err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%-256s", sc.Key())), nil
	}
	srv.start()
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < requests; i += clients {
				fig := core.ScenarioRefStock
				if i%2 == 1 {
					fig = core.ScenarioRefShielded
				}
				body, _ := json.Marshal(ScenarioRequest{Figure: fig, Seed: uint64(i), RunForMS: 1 + i%7})
				resp, err := client.Post(ts.URL+"/v1/scenarios?wait=1", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				out := readAll(t, resp)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Simd-Cache") != CacheMiss || len(out) != 256 {
					errs <- fmt.Errorf("request %d: status %d, cache %q, %d bytes", i, resp.StatusCode, resp.Header.Get("X-Simd-Cache"), len(out))
					return
				}
				if rb, ib := srv.results.Bytes(), srv.images.Bytes(); rb > resultBudget || ib > imageBudget {
					errs <- fmt.Errorf("request %d: resident %d result and %d image bytes, budgets %d and %d", i, rb, ib, resultBudget, imageBudget)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if st := srv.Stats(); st.Misses != requests || st.Completed != requests {
		t.Fatalf("misses=%d completed=%d, want %d each", st.Misses, st.Completed, requests)
	}
	srv.mu.Lock()
	jobs, inflight, expiring := len(srv.jobs), len(srv.inflight), len(srv.expiring)
	srv.mu.Unlock()
	if jobs != 0 || inflight != 0 || expiring != 0 {
		t.Fatalf("after %d ?wait=1 requests: %d jobs, %d in flight, %d expiring; want none", requests, jobs, inflight, expiring)
	}
	if srv.results.Len() != resultBudget/256 || srv.images.Len() != imageBudget/1024 {
		t.Fatalf("resident %d results and %d images, want the budgets full (%d and %d)",
			srv.results.Len(), srv.images.Len(), resultBudget/256, imageBudget/1024)
	}

	// Closing the front end and draining the server must leave no
	// connection, handler or worker goroutine behind.
	client.CloseIdleConnections()
	ts.Close()
	srv.Drain()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFinishedJobExpires: an asynchronous job is addressable on all
// three routes until jobRetention after it finishes, then answers 410;
// an id the server never issued stays 404 throughout.
func TestFinishedJobExpires(t *testing.T) {
	srv, ts, clock := clockedServer(t, func(core.Scenario, *sim.EventPool) ([]byte, error) {
		return []byte("kept"), nil
	})
	resp := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 4, RunForMS: 5})
	var st JobStatus
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || st.ID != "job-1" {
		t.Fatalf("async POST status %d id %q, want 202 job-1", resp.StatusCode, st.ID)
	}
	waitFor(t, srv, "the job finishes", func() bool { return len(srv.expiring) == 1 })

	clock.advance(jobRetention - time.Nanosecond)
	for _, path := range jobRoutes(st.ID) {
		if code := statusOf(t, ts, path); code != http.StatusOK {
			t.Fatalf("GET %s just inside retention: status %d, want 200", path, code)
		}
	}
	clock.advance(time.Nanosecond)
	for _, path := range jobRoutes(st.ID) {
		if code := statusOf(t, ts, path); code != http.StatusGone {
			t.Fatalf("GET %s after retention: status %d, want 410", path, code)
		}
	}
	for _, id := range []string{"job-2", "job-0", "job-01", "job-", "job-x", "cached"} {
		for _, path := range jobRoutes(id) {
			if code := statusOf(t, ts, path); code != http.StatusNotFound {
				t.Fatalf("GET %s (never issued): status %d, want 404", path, code)
			}
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.jobs) != 0 || len(srv.expiring) != 0 {
		t.Fatalf("expired job still held: %d jobs, %d expiring", len(srv.jobs), len(srv.expiring))
	}
}

// TestAsyncJoinKeepsWaitJobAddressable: a ?wait=1 miss is not
// addressable, but an asynchronous join onto it while it runs issues
// its id, and the job then stays addressable, with the bytes the
// waiter got, until its retention passes.
func TestAsyncJoinKeepsWaitJobAddressable(t *testing.T) {
	blocked, release := gate()
	srv, ts, clock := clockedServer(t, func(core.Scenario, *sim.EventPool) ([]byte, error) {
		blocked()
		return []byte("shared"), nil
	})
	t.Cleanup(release)
	req := ScenarioRequest{Figure: core.ScenarioRefShielded, Seed: 9, RunForMS: 5}
	waited := make(chan []byte, 1)
	go func() {
		resp := post(t, ts, "/v1/scenarios?wait=1", req)
		waited <- readAll(t, resp)
	}()
	waitFor(t, srv, "the ?wait=1 miss is in flight", func() bool { return len(srv.inflight) == 1 })
	srv.mu.Lock()
	held := len(srv.jobs)
	srv.mu.Unlock()
	if held != 0 {
		t.Fatalf("a ?wait=1 miss was made addressable: %d jobs", held)
	}

	resp := post(t, ts, "/v1/scenarios", req)
	var st JobStatus
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || st.Cache != CacheJoin || st.ID != "job-1" {
		t.Fatalf("async join: status %d cache %q id %q, want 202 join job-1", resp.StatusCode, st.Cache, st.ID)
	}
	release()
	if got := <-waited; string(got) != "shared" {
		t.Fatalf("waiter got %q", got)
	}
	waitFor(t, srv, "the job finishes", func() bool { return len(srv.expiring) == 1 })

	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, r); r.StatusCode != http.StatusOK || string(body) != "shared" {
		t.Fatalf("joined job result: status %d body %q", r.StatusCode, body)
	}
	clock.advance(jobRetention)
	if code := statusOf(t, ts, "/v1/jobs/"+st.ID); code != http.StatusGone {
		t.Fatalf("joined job after retention: status %d, want 410", code)
	}
}

// TestEventsClientGoneLeavesNoSubscriber: an SSE client that
// disconnects while its job runs leaves no channel in the job's
// subscribers once its handler returns, and the job then finishes
// normally.
func TestEventsClientGoneLeavesNoSubscriber(t *testing.T) {
	blocked, release := gate()
	srv, ts, _ := clockedServer(t, func(core.Scenario, *sim.EventPool) ([]byte, error) {
		blocked()
		return []byte("late"), nil
	})
	t.Cleanup(release)
	resp := post(t, ts, "/v1/scenarios", ScenarioRequest{Figure: core.ScenarioRefStock, Seed: 6, RunForMS: 5})
	var st JobStatus
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	j := srv.jobs[st.ID]
	srv.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	es, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(es.Body).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "event: state") {
		t.Fatalf("first SSE line %q, err %v", line, err)
	}
	waitFor(t, srv, "the stream subscribes", func() bool { return len(j.subs) == 1 })
	cancel()
	es.Body.Close()
	waitFor(t, srv, "the gone client's channel is dropped", func() bool { return len(j.subs) == 0 })

	release()
	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	for deadline := time.Now().Add(10 * time.Second); err == nil && r.StatusCode == http.StatusAccepted; {
		readAll(t, r)
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
		r, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	}
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, r); r.StatusCode != http.StatusOK || string(body) != "late" {
		t.Fatalf("result after the stream left: status %d body %q", r.StatusCode, body)
	}
}
