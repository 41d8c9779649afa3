package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Config sizes one Server.
type Config struct {
	// Workers is the simulation worker-pool size (the number of
	// scenarios that run concurrently). Defaults to runner.Workers(0),
	// the same GOMAXPROCS-derived default the CLI uses.
	Workers int
	// QueueDepth bounds the admission queue; a POST that finds it full
	// is refused with 429 + Retry-After instead of blocking. Defaults
	// to 4× the worker count.
	QueueDepth int
	// BudgetVirtualMS is the per-request cost ceiling in virtual
	// milliseconds (core.Scenario.CostVirtualMS); an oversized request
	// is refused with 422 before any work starts. <= 0 means unlimited.
	BudgetVirtualMS int64
	// FigureWorkers caps the replication fan-out inside one figure run.
	// It can never change result bytes; it only trades latency of one
	// job against throughput of many. Defaults to 1.
	FigureWorkers int
	// CacheDir, when set, write-through persists result blobs and
	// post-boot images so restarts (and sibling processes) warm-start.
	CacheDir string
}

func (c Config) withDefaults() Config {
	c.Workers = runner.Workers(c.Workers)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.FigureWorkers <= 0 {
		c.FigureWorkers = 1
	}
	return c
}

// jobRetention is how long a finished job stays addressable by its id.
// After it, the job's routes answer 410 Gone; its result bytes remain
// in the result store under the scenario key while memory allows.
const jobRetention = 10 * time.Minute

// job is one admitted scenario run.
type job struct {
	scenario core.Scenario
	cache    string // CacheMiss for the runner; joiners observe CacheJoin

	// mutable under Server.mu
	id     string // "" until the id leaves the server (register)
	state  JobState
	result []byte
	err    error
	subs   []chan JobStatus

	done chan struct{} // closed after result/err are final
}

// expiry is one finished, addressable job and the instant it stops
// being held.
type expiry struct {
	id string
	at time.Time
}

// Server is the simulation service: admission queue, worker pool,
// content-addressed result cache and warm-start image store. Create
// with New, serve via Handler, stop with Drain.
type Server struct {
	cfg     Config
	results *snapshot.Store
	images  *snapshot.Store

	mu sync.Mutex
	// jobs holds the jobs a client can address: those whose id left
	// the server in a 202. A ?wait=1 miss lives only in inflight, and
	// its waiters hold the pointer.
	jobs     map[string]*job
	inflight map[string]*job // scenario key -> job, for request coalescing
	expiring []expiry        // finished addressable jobs, in finish order
	lastID   uint64          // ids issued are job-1 .. job-lastID
	draining bool
	queue    chan *job

	cancel      context.CancelFunc
	workersDone chan struct{}

	hits, misses, joins, completed, failed,
	rejQueue, rejBudget, warmStarts, coldBoots atomic.Int64

	// execute runs one scenario on a worker. Tests substitute it to
	// simulate slow or failing runs; the default is runScenario.
	execute func(s core.Scenario, pool *sim.EventPool) ([]byte, error)
	// now is the clock job retention reads. Tests substitute it to
	// move finished jobs past jobRetention.
	now func() time.Time
}

// New builds a Server and starts its worker pool. The pool is built on
// runner.MapSeededPooledCtx: each pool slot is one replication of a
// "drain the queue" function, which hands every worker its own
// sim.EventPool to reuse across the simulations it runs.
func New(cfg Config) (*Server, error) {
	srv, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	srv.start()
	return srv, nil
}

// newServer builds the server without starting workers, so tests can
// substitute execute before any worker goroutine exists.
func newServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	results, err := snapshot.NewStore(storeSubdir(cfg.CacheDir, "results"))
	if err != nil {
		return nil, err
	}
	images, err := snapshot.NewStore(storeSubdir(cfg.CacheDir, "images"))
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:         cfg,
		results:     results,
		images:      images,
		jobs:        make(map[string]*job),
		inflight:    make(map[string]*job),
		queue:       make(chan *job, cfg.QueueDepth),
		workersDone: make(chan struct{}),
	}
	srv.execute = srv.runScenario
	srv.now = time.Now
	return srv, nil
}

// start launches the worker pool.
func (s *Server) start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.workersDone)
		// One "replication" per pool slot; each drains the shared queue
		// until Drain closes it. Cancellation (hard stop) lets in-flight
		// runs finish but stops idle slots promptly.
		_, _ = runner.MapSeededPooledCtx(ctx, s.cfg.Workers, 1, s.cfg.Workers,
			func(i int, seed uint64, pool *sim.EventPool) int {
				for j := range s.queue {
					if !s.run(j, pool) {
						// The panicking run may have left nodes checked
						// out of the pool or its free list half-updated;
						// the next job starts on a clean one.
						pool = sim.NewEventPool()
					}
				}
				return 0
			})
	}()
}

func storeSubdir(dir, name string) string {
	if dir == "" {
		return ""
	}
	return dir + "/" + name
}

// Drain stops admission (new POSTs get 503) and waits for every queued
// and in-flight job to finish. Idempotent; this is the SIGTERM path.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	<-s.workersDone
	s.cancel()
}

// run executes one job on a pool worker and publishes its result. A
// panicking scenario fails its own job and nothing else; run then
// reports false so the worker replaces pool before its next job.
func (s *Server) run(j *job, pool *sim.EventPool) (poolOK bool) {
	s.setState(j, StateRunning)
	out, err := s.executeRecovered(j.scenario, pool)
	var pe *panicError
	poolOK = !errors.As(err, &pe)
	if err == nil {
		// A failed cache write (full or read-only disk) leaves the
		// correctly computed result uncached; the job still succeeds.
		_ = s.results.Put(j.scenario.Key(), out)
	}

	s.mu.Lock()
	j.result, j.err = out, err
	if err != nil {
		j.state = StateFailed
		s.failed.Add(1)
	} else {
		j.state = StateDone
		s.completed.Add(1)
	}
	delete(s.inflight, j.scenario.Key())
	if j.id != "" {
		s.expiring = append(s.expiring, expiry{id: j.id, at: s.now().Add(jobRetention)})
	}
	st := s.statusLocked(j)
	subs := j.subs
	j.subs = nil
	s.mu.Unlock()

	close(j.done)
	for _, ch := range subs {
		ch <- st
		close(ch)
	}
	return poolOK
}

// panicError is the failure of a job whose scenario panicked.
type panicError struct {
	figure string
	value  any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("simd: scenario %s panicked: %v", e.figure, e.value)
}

// executeRecovered is execute with a panic turned into a *panicError.
func (s *Server) executeRecovered(sc core.Scenario, pool *sim.EventPool) (out []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			out, err = nil, &panicError{figure: sc.Figure, value: v}
		}
	}()
	return s.execute(sc, pool)
}

// runScenario is the default execute: figures run cold through the
// replication pipeline; continuations warm-start from a cached
// post-boot image when one exists, else boot cold and cache the image.
// Warm and cold produce byte-identical results (core's cold/warm pin),
// so the choice is invisible in the content-addressed result.
func (s *Server) runScenario(sc core.Scenario, pool *sim.EventPool) ([]byte, error) {
	if sc.Kind != core.KindContinuation {
		return core.RunScenario(sc, s.cfg.FigureWorkers)
	}
	ik, err := sc.ImageKey()
	if err != nil {
		return nil, err
	}
	if img, ok := s.images.Get(ik); ok {
		out, err := core.RunContinuationWarm(sc, img, pool)
		if err == nil {
			s.warmStarts.Add(1)
			return out, nil
		}
		// A bad cached image must not fail the request; fall through to
		// a cold boot, which will overwrite it.
	}
	out, img, err := core.RunContinuationCold(sc, pool)
	if err != nil {
		return nil, err
	}
	s.coldBoots.Add(1)
	// An image that cannot be cached only costs later windows their
	// warm start; the result itself is correct.
	_ = s.images.Put(ik, img)
	return out, nil
}

func (s *Server) setState(j *job, st JobState) {
	s.mu.Lock()
	j.state = st
	status := s.statusLocked(j)
	subs := append([]chan JobStatus(nil), j.subs...)
	s.mu.Unlock()
	for _, ch := range subs {
		ch <- status
	}
}

// statusLocked renders a JobStatus; callers hold s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:            j.id,
		State:         j.state,
		Figure:        j.scenario.Figure,
		Key:           j.scenario.Key(),
		Cache:         j.cache,
		CostVirtualMS: j.scenario.CostVirtualMS(),
	}
	if j.state == StateDone {
		st.ResultHash = core.HashBytes(j.result)
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/figures", s.handleFigures)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return readBody(mux)
}

// readBody reads every request body to its end, at most
// maxRequestBytes and within BodyReadTimeout, before next runs, so no
// route leaves unread bytes for net/http to wait on without a deadline.
// The deadline is then cleared (a ?wait=1 reply or an event stream may
// take far longer); after a failed read it stays, so the connection
// closes after the error reply. A writer without deadline support (a
// test recorder) reads unbounded.
func readBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Now().Add(BodyReadTimeout))
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
				return
			}
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed request body: " + err.Error()})
			return
		}
		_ = rc.SetReadDeadline(time.Time{})
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeResult(w http.ResponseWriter, cache string, body []byte) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Simd-Cache", cache)
	w.Header().Set("X-Simd-Result-Hash", core.HashBytes(body))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleScenarios is admission: resolve, budget-check, cache-check,
// coalesce onto identical in-flight work, else enqueue. ?wait=1 blocks
// for the result bytes; otherwise the response is a JobStatus.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed request body: " + err.Error()})
		return
	}
	sc, err := core.ResolveScenario(req.Figure, req.Scale, req.Seed, req.RunForMS)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if cost, budget := sc.CostVirtualMS(), s.cfg.BudgetVirtualMS; budget > 0 && cost > budget {
		s.rejBudget.Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{
			Error:     fmt.Sprintf("runner: budget exceeded: requested %d virtual-ms, budget %d", cost, budget),
			Requested: cost, Budget: budget,
		})
		return
	}
	wait := r.URL.Query().Get("wait") == "1"
	key := sc.Key()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining"})
		return
	}
	s.expireLocked()
	// Served already? The store is immutable and content-addressed, so
	// this is exactly what a fresh run would return.
	if body, ok := s.results.Get(key); ok {
		s.mu.Unlock()
		s.hits.Add(1)
		if wait {
			s.writeResult(w, CacheHit, body)
			return
		}
		writeJSON2(w, http.StatusOK, CacheHit, JobStatus{
			ID: "cached", State: StateDone, Figure: sc.Figure, Key: key,
			Cache: CacheHit, CostVirtualMS: sc.CostVirtualMS(), ResultHash: core.HashBytes(body),
		})
		return
	}
	// Identical scenario already in flight? Join it instead of running
	// the same pure function twice.
	if jb, ok := s.inflight[key]; ok {
		if wait {
			s.mu.Unlock()
			s.joins.Add(1)
			s.waitAndWrite(w, r, jb, CacheJoin)
			return
		}
		// The leader may be a ?wait=1 miss; its id leaves now.
		s.registerLocked(jb)
		st := s.statusLocked(jb)
		s.mu.Unlock()
		s.joins.Add(1)
		st.Cache = CacheJoin
		writeJSON2(w, http.StatusAccepted, CacheJoin, st)
		return
	}
	j := &job{
		scenario: sc,
		cache:    CacheMiss,
		state:    StateQueued,
		done:     make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.rejQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "admission queue full; retry"})
		return
	}
	s.inflight[key] = j
	if wait {
		s.mu.Unlock()
		s.misses.Add(1)
		s.waitAndWrite(w, r, j, CacheMiss)
		return
	}
	s.registerLocked(j)
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.misses.Add(1)
	writeJSON2(w, http.StatusAccepted, CacheMiss, st)
}

// registerLocked makes j addressable: it issues j's id and holds j in
// jobs until jobRetention after it finishes. Callers hold s.mu.
func (s *Server) registerLocked(j *job) {
	if j.id != "" {
		return
	}
	s.lastID++
	j.id = "job-" + strconv.FormatUint(s.lastID, 10)
	s.jobs[j.id] = j
}

// expireLocked drops the finished jobs whose retention has passed from
// the front of the finish-order FIFO. Callers hold s.mu.
func (s *Server) expireLocked() {
	if len(s.expiring) == 0 {
		return
	}
	now := s.now()
	n := 0
	for n < len(s.expiring) && !now.Before(s.expiring[n].at) {
		delete(s.jobs, s.expiring[n].id)
		n++
	}
	clear(s.expiring[:n])
	if n == len(s.expiring) {
		s.expiring = s.expiring[:0]
	} else {
		s.expiring = s.expiring[n:]
	}
}

// writeJSON2 is writeJSON plus the cache-disposition header, so even
// JSON status responses carry X-Simd-Cache.
func writeJSON2(w http.ResponseWriter, code int, cache string, v any) {
	w.Header().Set("X-Simd-Cache", cache)
	writeJSON(w, code, v)
}

// waitAndWrite blocks until j finishes (or the client goes away) and
// writes its result bytes with the given cache disposition.
func (s *Server) waitAndWrite(w http.ResponseWriter, r *http.Request, j *job, cache string) {
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	s.mu.Lock()
	body, err := j.result, j.err
	s.mu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.writeResult(w, cache, body)
}

// lookup resolves the {id} path value to an addressable job. An id
// never issued answers 404; an issued one whose job has expired
// answers 410.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	s.expireLocked()
	j, ok := s.jobs[id]
	issued := s.issuedLocked(id)
	s.mu.Unlock()
	switch {
	case ok:
		return j, true
	case issued:
		writeJSON(w, http.StatusGone, errorBody{Error: "job expired"})
	default:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
	}
	return nil, false
}

// issuedLocked reports whether id is one this server has handed out.
// Callers hold s.mu.
func (s *Server) issuedLocked(id string) bool {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok || num == "" || num[0] == '0' {
		return false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	return err == nil && n <= s.lastID
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state, body, err := j.state, j.result, j.err
	cache := j.cache
	s.mu.Unlock()
	switch state {
	case StateDone:
		s.writeResult(w, cache, body)
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, errorBody{Error: "job still " + string(state)})
	}
}

// handleEvents streams job state transitions as server-sent events
// (event: state, data: JobStatus JSON), ending after the terminal one.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	ch := make(chan JobStatus, 8)
	s.mu.Lock()
	first := s.statusLocked(j)
	terminal := j.state == StateDone || j.state == StateFailed
	if !terminal {
		j.subs = append(j.subs, ch)
		defer s.unsubscribe(j, ch)
	}
	s.mu.Unlock()

	emit := func(st JobStatus) bool {
		b, _ := json.Marshal(st)
		if _, err := fmt.Fprintf(w, "event: state\ndata: %s\n\n", b); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}
	if !emit(first) || terminal {
		return
	}
	for {
		select {
		case st, open := <-ch:
			if !open {
				return
			}
			if !emit(st) {
				return
			}
			if st.State == StateDone || st.State == StateFailed {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// unsubscribe drops ch from j's subscribers, so a client that goes
// away mid-job leaves no channel behind. A finished job has already
// dropped them all.
func (s *Server) unsubscribe(j *job, ch chan JobStatus) {
	s.mu.Lock()
	j.subs = slices.DeleteFunc(j.subs, func(c chan JobStatus) bool { return c == ch })
	s.mu.Unlock()
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Scenarios())
}

// Snapshot of the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Joins:          s.joins.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		RejectedQueue:  s.rejQueue.Load(),
		RejectedBudget: s.rejBudget.Load(),
		WarmStarts:     s.warmStarts.Load(),
		ColdBoots:      s.coldBoots.Load(),
		ResidentBlobs:  s.results.Len(),
		ResidentImages: s.images.Len(),
		Draining:       draining,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
