package simd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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
// result store.
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

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := core.ScenarioRefStock
		if i%2 == 1 {
			fig = core.ScenarioRefShielded
		}
		seed := uint64(1000 + i)
		serve(ScenarioRequest{Figure: fig, Seed: seed, RunForMS: 1})
		for _, window := range []int{2, 4, 7, 10} {
			serve(ScenarioRequest{Figure: fig, Seed: seed, RunForMS: window})
		}
	}
	b.StopTimer()
	if st := srv.Stats(); st.ColdBoots != int64(b.N) || st.WarmStarts != 4*int64(b.N) {
		b.Fatalf("%d cold boots and %d warm starts over %d seeds, want one cold boot and four warm starts per seed",
			st.ColdBoots, st.WarmStarts, b.N)
	}
}
