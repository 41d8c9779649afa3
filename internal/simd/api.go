// Package simd is the fleet-scale simulation service: a long-running
// HTTP/JSON front end over the deterministic figure pipeline. Clients
// POST a scenario (figure + scale + seed, or a reference-machine
// continuation), get a job ID, poll or stream progress, and fetch
// result bytes that are bit-identical to a local rtsim run of the same
// scenario.
//
// Everything rests on the repo's determinism contract: a result is a
// pure function of the scenario's canonical encoding (core.Scenario),
// so results are content-addressed by the FNV-1a hash of that encoding
// — the same hash family the reprocheck goldens pin — and a cache hit
// is provably the bytes a fresh run would produce. Concurrency lives
// entirely in this package and internal/runner; the simulation code it
// calls stays single-threaded and pure.
package simd

import (
	"time"

	"repro/internal/core"
)

// ScenarioRequest is the POST /v1/scenarios body. Figure names either
// a paper figure (fig1..fig7, attrib-causes, with Scale) or a reference
// continuation (ref-stock/ref-shielded, with RunForMS). Workers caps
// the replication fan-out of the run; it is deliberately absent from
// the cache key because worker count can never change result bytes.
type ScenarioRequest struct {
	Figure   string  `json:"figure"`
	Scale    float64 `json:"scale,omitempty"`
	Seed     uint64  `json:"seed"`
	RunForMS int     `json:"run_for_ms,omitempty"`
	Workers  int     `json:"workers,omitempty"`
}

// maxRequestBytes caps a request body on every route. A real scenario
// request is about 100 bytes; anything past the cap is refused with 413
// instead of being buffered whole.
const maxRequestBytes = 64 << 10

// BodyReadTimeout bounds how long a request body, on any route, may take
// to arrive once its header is in, so a client that stalls mid-body cannot
// hold its connection and handler goroutine forever. It bounds only the
// body read: a ?wait=1 reply or an event stream may take far longer.
const BodyReadTimeout = 5 * time.Second

// JobState is the lifecycle of one admitted scenario run.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Cache dispositions reported in JobStatus.Cache and the X-Simd-Cache
// response header.
const (
	CacheHit  = "hit"  // served straight from the content-addressed store
	CacheMiss = "miss" // ran fresh (result then enters the store)
	CacheJoin = "join" // coalesced onto an identical in-flight job
)

// JobStatus is the JSON shape of GET /v1/jobs/{id} and of the 202
// response to an asynchronous POST.
type JobStatus struct {
	ID            string   `json:"id"`
	State         JobState `json:"state"`
	Figure        string   `json:"figure"`
	Key           string   `json:"key"`
	Cache         string   `json:"cache"`
	CostVirtualMS int64    `json:"cost_virtual_ms"`
	ResultHash    string   `json:"result_hash,omitempty"`
	Error         string   `json:"error,omitempty"`
}

// Stats is the GET /v1/stats payload: cache and admission counters
// since process start, plus store residency.
type Stats struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Joins          int64 `json:"joins"`
	Completed      int64 `json:"completed"`
	Failed         int64 `json:"failed"`
	RejectedQueue  int64 `json:"rejected_queue"`
	RejectedBudget int64 `json:"rejected_budget"`
	WarmStarts     int64 `json:"warm_starts"`
	ColdBoots      int64 `json:"cold_boots"`
	ResidentBlobs  int   `json:"resident_blobs"`
	ResidentImages int   `json:"resident_images"`
	Draining       bool  `json:"draining"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error     string `json:"error"`
	Requested int64  `json:"requested,omitempty"`
	Budget    int64  `json:"budget,omitempty"`
}

// Scenarios lists the scenario ids the service accepts (GET /v1/figures).
func Scenarios() []string { return core.ServedScenarios() }
