// Package sweepd is the sweep pipeline as a fault-tolerant service:
// a persistent HTTP/JSON daemon wrapping scenario.RunJournaled. Jobs
// are content-addressed — the job ID is the canonical spec hash, so a
// duplicate POST of an identical spec is served from the cache (the
// finished artifact on disk) without re-running — and crash-safe: the
// journaled runner checkpoints every completed cell, graceful
// shutdown cancels running jobs mid-round, and a restarted daemon
// finds their spec files and journals in DataDir and resumes them to
// byte-identical artifacts. The job queue is bounded; a full queue
// sheds load with 429 + Retry-After rather than growing without
// bound.
//
// The API:
//
//	POST /sweeps              submit a spec (JSON body) → job status
//	GET  /sweeps/{id}         job status
//	GET  /sweeps/{id}/artifact  the finished JSONL artifact
//	GET  /sweeps/{id}/diff?against={id}  byte-compare two finished artifacts
//	POST /sweeps/{id}/cancel  cancel a queued or running job
//	GET  /healthz             liveness + queue occupancy + build-cache stats
package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pramemu/internal/buildcache"
	"pramemu/internal/scenario"
)

// Config tunes the daemon.
type Config struct {
	// DataDir persists specs, journals and artifacts; it is the
	// daemon's entire durable state. Required.
	DataDir string
	// QueueDepth bounds the jobs waiting to run; submissions beyond
	// it get 429 + Retry-After (default 16).
	QueueDepth int
	// Workers is the number of jobs priced concurrently (default 1 —
	// each sweep already runs its grid over its own Spec.Pool).
	Workers int
	// JobTimeout caps one job's wall clock, checkpointing what
	// completed (0 = none).
	JobTimeout time.Duration
	// Retries re-runs transiently failed cells (timeouts) with
	// exponential backoff before a job's artifact finalizes.
	Retries int
	// RetryBackoff is the first retry delay, doubling per pass
	// (default 100ms).
	RetryBackoff time.Duration
	// BuildCacheBudget sizes the server's topology build cache in
	// bytes: successive jobs over the same families adopt one cached
	// build instead of re-constructing it (artifact bytes are
	// unaffected). 0 selects the buildcache default (256 MiB);
	// negative disables caching.
	BuildCacheBudget int64
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.BuildCacheBudget == 0 {
		c.BuildCacheBudget = buildcache.DefaultBudget
	}
	return c
}

// The job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Status is the job-status JSON of the API.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// Cached marks a submission answered from the content-addressed
	// cache — the spec hash already had a finished artifact.
	Cached bool `json:"cached,omitempty"`
	// Cells and Errors mirror the artifact trailer once done.
	Cells  int    `json:"cells,omitempty"`
	Errors int    `json:"errors,omitempty"`
	Error  string `json:"error,omitempty"`
}

// job is the in-memory record; all fields are guarded by Server.mu.
type job struct {
	id         string
	name       string
	spec       scenario.Spec
	state      string
	cells      int
	failures   int
	errMsg     string
	userCancel bool
	cancel     context.CancelFunc
}

// Server is the daemon: an http.Handler plus the worker pool behind
// it. Create with New, serve it, and Close it on shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job
	// cache is the server-wide topology build cache: one per Server,
	// shared by every worker, so a farm of repeated sweeps over the
	// same families builds each topology once.
	cache *buildcache.Cache

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job
}

// New builds a Server over DataDir, re-registering finished jobs from
// their artifacts and re-enqueueing interrupted ones (spec file
// present, artifact absent) so a restart resumes where the previous
// daemon was killed.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("sweepd: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: %w", err)
	}
	pending, done, err := scanDataDir(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		// The queue is sized for the configured depth plus every job
		// recovered from disk: recovered work must never be shed.
		queue:   make(chan *job, cfg.QueueDepth+len(pending)),
		cache:   buildcache.New(cfg.BuildCacheBudget),
		baseCtx: ctx,
		stop:    stop,
		jobs:    make(map[string]*job),
	}
	for _, j := range done {
		s.jobs[j.id] = j
	}
	for _, j := range pending {
		s.jobs[j.id] = j
		s.queue <- j
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /sweeps/{id}/artifact", s.handleArtifact)
	s.mux.HandleFunc("GET /sweeps/{id}/diff", s.handleDiff)
	s.mux.HandleFunc("POST /sweeps/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close checkpoints and stops the daemon: running jobs are canceled
// (their journals keep every completed cell), queued jobs stay queued
// on disk, and the workers are waited out. A daemon restarted over
// the same DataDir resumes all of them.
func (s *Server) Close() {
	s.stop()
	s.wg.Wait()
}

// scanDataDir recovers the durable state: finished jobs from their
// artifacts (trailer counts included), interrupted ones from their
// spec files.
func scanDataDir(dir string) (pending, done []*job, err error) {
	specs, err := filepath.Glob(filepath.Join(dir, "*.spec.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("sweepd: scanning %s: %w", dir, err)
	}
	sort.Strings(specs)
	for _, path := range specs {
		id := strings.TrimSuffix(filepath.Base(path), ".spec.json")
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("sweepd: %w", err)
		}
		spec, err := scenario.ReadSpec(f)
		f.Close()
		if err != nil {
			// An unreadable spec cannot be resumed; leave the file for
			// the operator, skip the job.
			continue
		}
		j := &job{id: id, name: spec.Name, spec: spec}
		if t, err := readTrailer(artifactPath(dir, id)); err == nil {
			j.state, j.cells, j.failures = StateDone, t.Cells, t.Errors
			done = append(done, j)
			continue
		}
		j.state = StateQueued
		pending = append(pending, j)
	}
	return pending, done, nil
}

func artifactPath(dir, id string) string { return filepath.Join(dir, id+".jsonl") }
func specPath(dir, id string) string     { return filepath.Join(dir, id+".spec.json") }

// readTrailer opens a finished artifact and verifies its trailer.
func readTrailer(path string) (scenario.Trailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return scenario.Trailer{}, err
	}
	defer f.Close()
	return scenario.VerifyTrailer(f)
}

// worker prices queued jobs until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job through the journaled runner and settles
// its state: done (artifact published, cell failures included),
// canceled (user), queued again (daemon shutdown — checkpointed for
// the next daemon), or failed.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued {
		s.mu.Unlock()
		return // canceled while waiting
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.state, j.cancel = StateRunning, cancel
	s.mu.Unlock()
	defer cancel()
	runCtx := ctx
	if s.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer tcancel()
	}
	results, err := scenario.RunJournaled(runCtx, j.spec, artifactPath(s.cfg.DataDir, j.id), scenario.JournalOptions{
		Retries: s.cfg.Retries,
		Backoff: s.cfg.RetryBackoff,
		Cache:   s.cache,
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	var agg *scenario.AggregateError
	switch {
	case err == nil:
		j.state, j.cells = StateDone, len(results)
	case errors.As(err, &agg):
		// The artifact finalized with error lines: the job is done,
		// the failures are on record in it and in the status.
		j.state, j.cells, j.failures = StateDone, len(results), agg.Failed
		j.errMsg = err.Error()
	case s.baseCtx.Err() != nil:
		// Daemon shutdown: back to queued. The spec file and journal
		// on disk are the checkpoint a restarted daemon resumes.
		j.state = StateQueued
	case j.userCancel:
		j.state, j.errMsg = StateCanceled, "canceled by request"
		// A canceled job must not resurrect on restart; resubmitting
		// the same spec still resumes its journal.
		os.Remove(specPath(s.cfg.DataDir, j.id))
	default:
		j.state, j.errMsg = StateFailed, err.Error()
		// Failed jobs do not auto-rerun on restart either, but the
		// journal keeps completed cells for a future resubmission.
		os.Remove(specPath(s.cfg.DataDir, j.id))
	}
}

// status snapshots a job under the lock.
func (s *Server) status(j *job, cached bool) Status {
	return Status{
		ID:     j.id,
		Name:   j.name,
		State:  j.state,
		Cached: cached,
		Cells:  j.cells,
		Errors: j.failures,
		Error:  j.errMsg,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// handleSubmit is POST /sweeps: parse the spec, content-address it,
// answer duplicates from the cache, shed load when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := scenario.ReadSpec(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	id, err := scenario.SpecHash(spec)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && j.state != StateCanceled && j.state != StateFailed {
		// Same spec hash: the existing job answers. A finished one is
		// the content-addressed cache hit — no cell re-runs.
		writeJSON(w, http.StatusOK, s.status(j, j.state == StateDone))
		return
	}
	// New spec, or a resubmission reviving a canceled/failed job —
	// its journal, if any survived, still shortcuts the re-run.
	j := &job{id: id, name: spec.Name, spec: spec, state: StateQueued}
	select {
	case s.queue <- j:
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{
			fmt.Sprintf("job queue full (%d queued); retry later", cap(s.queue)),
		})
		return
	}
	// The spec file persists the submission so a killed daemon can
	// resume it; written after the queue admits the job, so shed
	// submissions leave no state.
	if err := writeSpecFile(specPath(s.cfg.DataDir, id), spec); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	s.jobs[id] = j
	writeJSON(w, http.StatusAccepted, s.status(j, false))
}

// writeSpecFile persists a submitted spec atomically.
func writeSpecFile(path string, spec scenario.Spec) error {
	b, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("sweepd: encoding spec: %w", err)
	}
	if err := scenario.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("sweepd: persisting spec: %w", err)
	}
	return nil
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
	}
	return j
}

// handleStatus is GET /sweeps/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := s.status(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleArtifact is GET /sweeps/{id}/artifact: stream the finished
// JSONL. The file exists only after the atomic rename, so a 200 body
// is always a complete, trailer-closed artifact.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state != StateDone {
		writeJSON(w, http.StatusConflict, apiError{fmt.Sprintf("job is %s; artifact available when done", state)})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	http.ServeFile(w, r, artifactPath(s.cfg.DataDir, j.id))
}

// diffStatus is the JSON answer of GET /sweeps/{id}/diff.
type diffStatus struct {
	A         string `json:"a"`
	B         string `json:"b"`
	Identical bool   `json:"identical"`
	// Detail names the first drifting line when the artifacts differ.
	Detail string `json:"detail,omitempty"`
}

// handleDiff is GET /sweeps/{id}/diff?against={id}: compare two
// finished, trailer-verified artifacts byte for byte server-side —
// the warm-farm reproducibility check without shipping either
// artifact over the wire. Unknown jobs 404, unfinished ones 409, and
// a drift answers 200 with identical=false plus the first differing
// line (drift is a finding, not a transport error).
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	against := r.URL.Query().Get("against")
	if against == "" {
		writeJSON(w, http.StatusBadRequest, apiError{"missing ?against=<job id>"})
		return
	}
	s.mu.Lock()
	k := s.jobs[against]
	var states [2]string
	if k != nil {
		states = [2]string{j.state, k.state}
	}
	s.mu.Unlock()
	if k == nil {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	for i, id := range []string{j.id, k.id} {
		if states[i] != StateDone {
			writeJSON(w, http.StatusConflict, apiError{fmt.Sprintf("job %s is %s; diff available when done", id, states[i])})
			return
		}
	}
	a, err := os.ReadFile(artifactPath(s.cfg.DataDir, j.id))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	b, err := os.ReadFile(artifactPath(s.cfg.DataDir, k.id))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	detail, same, err := scenario.DiffArtifacts(j.id, a, k.id, b)
	if err != nil {
		// A stored artifact failing trailer verification is server-side
		// corruption, not a client mistake.
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, diffStatus{A: j.id, B: k.id, Identical: same, Detail: detail})
}

// handleCancel is POST /sweeps/{id}/cancel: a queued job is dropped,
// a running one aborted within a round.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state, j.errMsg = StateCanceled, "canceled by request"
		os.Remove(specPath(s.cfg.DataDir, j.id))
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := s.status(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// healthz is the liveness probe, reporting queue occupancy so load
// shedding is observable before it bites.
type healthz struct {
	Status     string `json:"status"`
	Queued     int    `json:"queued"`
	QueueDepth int    `json:"queue_depth"`
	Jobs       int    `json:"jobs"`
	// BuildCache reports the server's topology build cache: hit/miss/
	// eviction counters, resident entries and bytes, and cumulative
	// build time — how much construction work the warm farm is saving.
	BuildCache buildcache.Stats `json:"build_cache"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, healthz{
		Status:     "ok",
		Queued:     len(s.queue),
		QueueDepth: cap(s.queue),
		Jobs:       n,
		BuildCache: s.cache.Stats(),
	})
}
