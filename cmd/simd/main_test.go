package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/simd"
)

// buildSimd compiles the simd binary once per test into a temp dir —
// the e2e suite drives the actual shipped binary, not an in-process
// handler.
func buildSimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build simd: %v\n%s", err, out)
	}
	return bin
}

// lockedBuffer serialises the stderr copier, the stdout scanner, and
// the test goroutine reading captured output.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) WriteString(s string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.WriteString(s)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startSimd launches the binary on an ephemeral port and parses the
// bound address from its startup line. The returned stop function
// SIGTERMs it and reports the exit error plus captured output.
func startSimd(t *testing.T, bin string, extraArgs ...string) (baseURL string, stop func() (error, string)) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var output lockedBuffer
	cmd.Stderr = &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	lines := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		for lines.Scan() {
			line := lines.Text()
			output.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "simd listening on "); ok {
				addr <- strings.TrimSpace(rest)
			}
		}
	}()
	select {
	case a := <-addr:
		baseURL = "http://" + a
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("simd never printed its listen address; output:\n%s", output.String())
	}

	stopped := false
	stop = func() (error, string) {
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		// Wait for the scanner to hit EOF before reaping the process:
		// cmd.Wait closes the stdout pipe, and reaping first would race
		// the scanner out of the final drain lines.
		select {
		case <-scanDone:
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			<-scanDone
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err, output.String()
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			return fmt.Errorf("simd did not exit within 60s of SIGTERM"), output.String()
		}
	}
	t.Cleanup(func() {
		if !stopped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return baseURL, stop
}

// TestSimdClosesSlowHeader: a client that sends part of a request
// header and then stalls is disconnected once readHeaderTimeout
// passes, instead of holding its connection open indefinitely.
func TestSimdClosesSlowHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildSimd(t)
	baseURL, stop := startSimd(t, bin)
	defer stop()

	conn, err := net.Dial("tcp", strings.TrimPrefix(baseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/stats HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const margin = 5 * time.Second
	conn.SetReadDeadline(start.Add(readHeaderTimeout + margin))
	_, err = io.Copy(io.Discard, conn) // returns at EOF, i.e. once the server closes
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection with a stalled header still open after %v (read header timeout %v)",
			time.Since(start).Round(time.Millisecond), readHeaderTimeout)
	}
	t.Logf("server closed the stalled connection after %v (err %v)", time.Since(start).Round(time.Millisecond), err)
}

// TestSimdClosesSlowBody: a client that sends a whole request header
// and then stalls short of its declared Content-Length gets an error
// reply or a closed connection once simd.BodyReadTimeout passes, instead
// of holding its connection and handler goroutine indefinitely. The
// first POST body stalls mid-value (10 of 100 bytes); the second sends
// a complete scenario but declares 20 bytes more than it sends; the
// third declares a body on a route that reads none (GET /v1/stats).
func TestSimdClosesSlowBody(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildSimd(t)
	baseURL, stop := startSimd(t, bin)
	defer stop()

	const complete = `{"figure": "ref-shielded", "seed": 7, "run_for_ms": 15}`
	bodies := []struct{ route, declared, sent string }{
		{"POST /v1/scenarios?wait=1", "100", `{"figure":`},
		{"POST /v1/scenarios?wait=1", fmt.Sprint(len(complete) + 20), complete},
		{"GET /v1/stats", "100", "0123456789"},
	}
	conns := make([]net.Conn, len(bodies))
	for i, b := range bodies {
		conn, err := net.Dial("tcp", strings.TrimPrefix(baseURL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		req := b.route + " HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n" +
			"Content-Length: " + b.declared + "\r\n\r\n" + b.sent
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	start := time.Now()
	const margin = 5 * time.Second
	for i, conn := range conns {
		conn.SetReadDeadline(start.Add(simd.BodyReadTimeout + margin))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		var ne net.Error
		switch {
		case errors.As(err, &ne) && ne.Timeout():
			t.Fatalf("body %d: stalled connection got no reply and stayed open for %v (body read timeout %v)",
				i, time.Since(start).Round(time.Millisecond), simd.BodyReadTimeout)
		case err != nil:
			t.Logf("body %d: server closed the stalled connection after %v (err %v)", i, time.Since(start).Round(time.Millisecond), err)
		case resp.StatusCode < 400:
			t.Fatalf("body %d: stalled body answered with status %d, want an error", i, resp.StatusCode)
		default:
			t.Logf("body %d: server answered the stalled body with %d after %v", i, resp.StatusCode, time.Since(start).Round(time.Millisecond))
		}
	}
}

func postScenario(t *testing.T, baseURL, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/scenarios?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSimdE2ECachedRerequest is the end-user cache pin: against the
// real binary on a random port, the same scenario POSTed twice returns
// byte-identical bytes, the second served from the cache with
// X-Simd-Cache: hit, and SIGTERM drains to a clean exit 0.
func TestSimdE2ECachedRerequest(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildSimd(t)
	baseURL, stop := startSimd(t, bin)

	const scenario = `{"figure": "ref-shielded", "seed": 7, "run_for_ms": 15}`
	first, firstBody := postScenario(t, baseURL, scenario)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first POST status %d: %s", first.StatusCode, firstBody)
	}
	if c := first.Header.Get("X-Simd-Cache"); c != "miss" {
		t.Fatalf("first POST X-Simd-Cache %q, want miss", c)
	}

	second, secondBody := postScenario(t, baseURL, scenario)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second POST status %d: %s", second.StatusCode, secondBody)
	}
	if c := second.Header.Get("X-Simd-Cache"); c != "hit" {
		t.Fatalf("second POST X-Simd-Cache %q, want hit", c)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("cached re-request returned different bytes:\nfirst:  %s\nsecond: %s", firstBody, secondBody)
	}
	if first.Header.Get("X-Simd-Result-Hash") != second.Header.Get("X-Simd-Result-Hash") {
		t.Fatal("result hash header changed between runs")
	}

	// A figure scenario through the same pipeline.
	fig, figBody := postScenario(t, baseURL, `{"figure": "fig7", "scale": 0.01, "seed": 7}`)
	if fig.StatusCode != http.StatusOK {
		t.Fatalf("figure POST status %d: %s", fig.StatusCode, figBody)
	}
	if len(figBody) == 0 {
		t.Fatal("figure returned empty body")
	}

	// Stats reflect the traffic.
	sr, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.Hits != 1 || stats.Misses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 1/2", stats.Hits, stats.Misses)
	}

	err, out := stop()
	if err != nil {
		t.Fatalf("SIGTERM did not produce a clean exit: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "draining") {
		t.Fatalf("no drain notice in output:\n%s", out)
	}
}

// TestSimdE2EDiskCacheSurvivesRestart: with -cache-dir, a second
// process over the same directory serves the first process's scenario
// as a cache hit without re-running it.
func TestSimdE2EDiskCacheSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildSimd(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	const scenario = `{"figure": "ref-stock", "seed": 3, "run_for_ms": 10}`

	first, stop := startSimd(t, bin, "-cache-dir", cacheDir)
	resp, coldBody := postScenario(t, first, scenario)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold POST status %d: %s", resp.StatusCode, coldBody)
	}
	if err, out := stop(); err != nil {
		t.Fatalf("first process exit: %v\n%s", err, out)
	}

	second, stop2 := startSimd(t, bin, "-cache-dir", cacheDir)
	resp2, warmBody := postScenario(t, second, scenario)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restart POST status %d: %s", resp2.StatusCode, warmBody)
	}
	if c := resp2.Header.Get("X-Simd-Cache"); c != "hit" {
		t.Fatalf("restarted process X-Simd-Cache %q, want hit (disk cache)", c)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("disk-cached bytes differ across processes")
	}
	if err, out := stop2(); err != nil {
		t.Fatalf("second process exit: %v\n%s", err, out)
	}
}

// TestSimdE2EBudgetRefusal: the shipped binary's -budget-ms flag turns
// oversized requests into 422s end to end.
func TestSimdE2EBudgetRefusal(t *testing.T) {
	if testing.Short() {
		t.Skip("integration (builds binary)")
	}
	bin := buildSimd(t)
	baseURL, stop := startSimd(t, bin, "-budget-ms", "100")
	resp, body := postScenario(t, baseURL, `{"figure": "ref-stock", "seed": 1, "run_for_ms": 5000}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "budget") {
		t.Fatalf("422 body does not mention the budget: %s", body)
	}
	if err, out := stop(); err != nil {
		t.Fatalf("exit: %v\n%s", err, out)
	}
}
