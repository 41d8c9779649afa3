package simd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
)

// BenchmarkServeContinuation drives the continuation serving path over
// HTTP the way churn traffic does: each iteration is a fresh seed, one
// cold request that boots the reference machine and stores its post-boot
// image, then four windows of distinct lengths that warm-start from that
// image. Seeds alternate between ref-stock and ref-shielded, every
// request is unique, and each is answered with ?wait=1, so an iteration
// covers HTTP, admission, resolve, boot or restore, the run and the
// result store. retained-B/seed is the heap the server still holds per
// seed once the run is over (live bytes, HeapAlloc after a GC, against
// the same reading after two warm-up seeds): the stored results and boot
// image, and nothing for the ?wait=1 jobs that produced them. HeapAlloc
// rather than HeapInuse, whose span granularity can read negative over
// a handful of seeds; even so, other heap activity moves one seed's
// figure by tens of KB, so read it at -benchtime 20x or more.
func BenchmarkServeContinuation(b *testing.B) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Drain()
	defer ts.Close()

	client := ts.Client()
	serve := func(req ScenarioRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/scenarios?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Simd-Cache") != CacheMiss {
			b.Fatalf("%+v: status %d, cache %q, err %v: %s", req, resp.StatusCode, resp.Header.Get("X-Simd-Cache"), err, out)
		}
	}

	// serveSeed sends seed index i's cold request and its four windows.
	serveSeed := func(i int) {
		fig := core.ScenarioRefStock
		if i%2 != 0 {
			fig = core.ScenarioRefShielded
		}
		seed := uint64(1000 + i)
		serve(ScenarioRequest{Figure: fig, Seed: seed, RunForMS: 1})
		for _, window := range []int{2, 4, 7, 10} {
			serve(ScenarioRequest{Figure: fig, Seed: seed, RunForMS: window})
		}
	}
	heapInuse := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	// One warm-up seed per machine keeps the first request's one-time
	// heap (connection buffers, pool growth) out of the per-seed figure.
	const warmup = 2
	for i := -warmup; i < 0; i++ {
		serveSeed(i)
	}
	before := heapInuse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveSeed(i)
	}
	b.StopTimer()
	b.ReportMetric((heapInuse()-before)/float64(b.N), "retained-B/seed")
	if st, seeds := srv.Stats(), int64(b.N+warmup); st.ColdBoots != seeds || st.WarmStarts != 4*seeds {
		b.Fatalf("%d cold boots and %d warm starts over %d seeds, want one cold boot and four warm starts per seed",
			st.ColdBoots, st.WarmStarts, seeds)
	}
}
