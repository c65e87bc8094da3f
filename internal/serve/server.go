package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"elag/internal/artifact"
	"elag/internal/chaosinject"
	"elag/internal/harness"
	"elag/internal/mech"
	"elag/internal/obs"
	"elag/internal/telemetry"
)

// Extra JobError kinds produced by admission and lookup (the execution
// kinds live in job.go).
const (
	// ErrKindOverload — the job queue is full; retry after backoff.
	ErrKindOverload = "overload"
	// ErrKindDraining — the server is shutting down and admits nothing.
	ErrKindDraining = "draining"
	// ErrKindNotFound — no such job ID.
	ErrKindNotFound = "not-found"
)

// Drain policies (Options.DrainPolicy).
const (
	// DrainWait finishes queued and running jobs before exiting.
	DrainWait = "wait"
	// DrainCancel cancels queued and running jobs; each aborts within one
	// trace chunk.
	DrainCancel = "cancel"
)

// Options configures a Server. Zero fields take the documented defaults.
type Options struct {
	// Workers is the job worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue; a full queue rejects submissions
	// with 429 + Retry-After (default 64).
	QueueDepth int
	// GridParallel is the harness parallelism each grid job runs with
	// (default 1: grid jobs are already whole-suite batches, so the pool,
	// not the job, is the unit of parallelism). Every job's replay still
	// spreads its configurations over up to GOMAXPROCS lanes.
	GridParallel int
	// Limits are the per-job admission budgets (default DefaultLimits).
	Limits Limits
	// DrainPolicy picks what Drain does with in-flight jobs: DrainWait
	// (default) or DrainCancel.
	DrainPolicy string
	// Cache, when non-nil, is the content-addressed result store: jobs
	// consult it before admission to the worker pool (a hit never costs a
	// queue slot), identical in-flight jobs coalesce via single-flight,
	// and a done job stores its whole result. It is the only result
	// cache: a grid job caches its document, never its rows. nil disables
	// all caching — every job executes.
	Cache *artifact.Store
	// Log receives the structured service log, with job-ID correlation
	// across admission → pool → exec → drain. nil logs nothing.
	Log *slog.Logger
}

// Server is the elag-serve core: a bounded job queue feeding a
// panic-isolated worker pool, plus the HTTP surface and drain machinery.
// Create with New, mount Handler, and call Drain exactly once to stop.
type Server struct {
	opts  Options
	start time.Time
	log   *slog.Logger

	// baseCtx parents every job context; baseStop cancels them all (the
	// DrainCancel policy and the drain-timeout hammer).
	baseCtx  context.Context
	baseStop context.CancelFunc

	// admitMu orders enqueue against queue close: admission holds it
	// shared around the draining check + send, Drain holds it exclusive
	// while flipping draining and closing the queue. No send can race the
	// close.
	admitMu  sync.RWMutex
	draining bool
	queue    chan *Job

	pool *pool

	regMu  sync.Mutex
	reg    map[string]*Job
	nextID int64

	// cache is the artifact store (Options.Cache; nil = caching off).
	// flight maps a result key to its in-flight computation: the first
	// miss becomes the leader, identical submissions while it runs become
	// followers, and the leader's terminal transition settles everyone.
	cache    *artifact.Store
	flightMu sync.Mutex
	flight   map[artifact.Key]*flightEntry

	// work aggregates replay-engine volume (chunks, streamed entries,
	// lab-cache hits/misses) across every job; /metrics reads it at
	// scrape time.
	work  harness.Counters
	stats *Stats
}

// New builds the server and starts its worker pool.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.GridParallel <= 0 {
		opts.GridParallel = 1
	}
	if opts.Limits == (Limits{}) {
		opts.Limits = DefaultLimits()
	}
	if opts.DrainPolicy == "" {
		opts.DrainPolicy = DrainWait
	}
	if opts.Log == nil {
		// Quiet default: slog with a discarded sink, so call sites never
		// nil-check (go.mod is go 1.22, predating slog.DiscardHandler).
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		opts:   opts,
		start:  time.Now(),
		log:    opts.Log,
		queue:  make(chan *Job, opts.QueueDepth),
		reg:    map[string]*Job{},
		cache:  opts.Cache,
		flight: map[artifact.Key]*flightEntry{},
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.stats = newStats(s.start, s.cache)
	s.registerServerMetrics()
	s.pool = newPool(opts.Workers, opts.GridParallel, s.queue, s.stats, &s.work, s.log)
	return s
}

// registerServerMetrics adds the scrape-time series whose values live on
// the server itself (queue, pool shape, uptime, chaos state, work volume,
// process CPU) to the stats registry. Everything is read at scrape time
// from its single source of truth, so /metrics never disagrees with the
// queue or the counters.
func (s *Server) registerServerMetrics() {
	reg := s.stats.Registry
	reg.GaugeFunc("elag_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("elag_queue_depth",
		"Jobs currently waiting in the queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("elag_queue_capacity",
		"Configured job queue capacity.",
		func() float64 { return float64(s.opts.QueueDepth) })
	reg.GaugeFunc("elag_workers",
		"Configured worker-pool size.",
		func() float64 { return float64(s.opts.Workers) })
	reg.GaugeFunc("elag_chaos_armed",
		"1 when chaos fault injection is armed (never in production).",
		func() float64 {
			if chaosinject.Enabled() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("elag_lab_cache_hits_total",
		"Grid lab-cache lookups that returned a lab the job had already built.",
		func() float64 { return float64(s.work.LabHits.Load()) })
	reg.CounterFunc("elag_lab_cache_misses_total",
		"Grid lab-cache lookups that built a new lab.",
		func() float64 { return float64(s.work.LabMisses.Load()) })
	reg.CounterFunc("elag_chunks_total",
		"Trace chunks replayed across all jobs.",
		func() float64 { return float64(s.work.Chunks.Load()) })
	reg.CounterFunc("elag_insts_total",
		"Streamed trace entries replayed across all jobs (rate = replay throughput).",
		func() float64 { return float64(s.work.Insts.Load()) })
	// One series per mechanism kind, pre-declared at startup so
	// the exposition is stable from the first scrape. The values read one
	// kind's aggregate mech.Stats at scrape time, each series its own
	// snapshot; the Stats algebra (lookups == hits + misses, allocs <=
	// trains) holds on the scraped values whenever no fold is in flight,
	// which is what the chaos suite asserts. The paper kinds (addrpred,
	// earlycalc) are built as the paper structures, account into the paper
	// counters inside the metrics documents and read zero here.
	for _, kind := range mech.Kinds() {
		read := func(get func(mech.Stats) int64) func() float64 {
			return func() float64 { return float64(get(s.work.MechStats(kind))) }
		}
		reg.CounterFunc("elag_mech_lookups_total",
			"Assist-path mechanism probes, by kind.",
			read(func(x mech.Stats) int64 { return x.Lookups }), "kind", kind)
		reg.CounterFunc("elag_mech_hits_total",
			"Mechanism probes that produced a predicted address, by kind.",
			read(func(x mech.Stats) int64 { return x.Hits }), "kind", kind)
		reg.CounterFunc("elag_mech_misses_total",
			"Mechanism probes that produced nothing, by kind.",
			read(func(x mech.Stats) int64 { return x.Misses }), "kind", kind)
		reg.CounterFunc("elag_mech_trains_total",
			"Retirement-side mechanism updates, by kind.",
			read(func(x mech.Stats) int64 { return x.Trains }), "kind", kind)
		reg.CounterFunc("elag_mech_allocs_total",
			"Mechanism entry allocations (a subset of trains), by kind.",
			read(func(x mech.Stats) int64 { return x.Allocs }), "kind", kind)
	}
	reg.CounterFunc("elag_process_cpu_seconds_total",
		"Cumulative process CPU time (user + system).",
		processCPUSeconds)
	if s.cache != nil {
		s.registerCacheMetrics()
	}
}

// registerCacheMetrics adds the artifact-store series. Only registered
// with a cache attached, so a cacheless server's exposition stays
// byte-compatible with pre-cache deployments.
func (s *Server) registerCacheMetrics() {
	reg := s.stats.Registry
	st := func(read func(artifact.Stats) int64) func() float64 {
		return func() float64 { return float64(read(s.cache.Stats())) }
	}
	reg.CounterFunc("elag_artifact_hits_total",
		"Artifact-store hits, by tier.",
		st(func(x artifact.Stats) int64 { return x.MemHits }), "tier", "mem")
	reg.CounterFunc("elag_artifact_hits_total",
		"Artifact-store hits, by tier.",
		st(func(x artifact.Stats) int64 { return x.DiskHits }), "tier", "disk")
	reg.CounterFunc("elag_artifact_misses_total",
		"Artifact-store lookups that found nothing valid.",
		st(func(x artifact.Stats) int64 { return x.Misses }))
	reg.CounterFunc("elag_artifact_evictions_total",
		"Artifacts evicted past the size budgets, by tier.",
		st(func(x artifact.Stats) int64 { return x.MemEvictions }), "tier", "mem")
	reg.CounterFunc("elag_artifact_evictions_total",
		"Artifacts evicted past the size budgets, by tier.",
		st(func(x artifact.Stats) int64 { return x.DiskEvictions }), "tier", "disk")
	reg.CounterFunc("elag_artifact_corrupt_total",
		"On-disk artifacts that failed integrity verification and were evicted.",
		st(func(x artifact.Stats) int64 { return x.Corrupt }))
	reg.GaugeFunc("elag_artifact_bytes",
		"Artifact-store resident size in bytes, by tier.",
		st(func(x artifact.Stats) int64 { return x.MemBytes }), "tier", "mem")
	reg.GaugeFunc("elag_artifact_bytes",
		"Artifact-store resident size in bytes, by tier.",
		st(func(x artifact.Stats) int64 { return x.DiskBytes }), "tier", "disk")
	reg.GaugeFunc("elag_artifact_entries",
		"Artifact-store entry count, by tier.",
		st(func(x artifact.Stats) int64 { return x.MemEntries }), "tier", "mem")
	reg.GaugeFunc("elag_artifact_entries",
		"Artifact-store entry count, by tier.",
		st(func(x artifact.Stats) int64 { return x.DiskEntries }), "tier", "disk")
}

// Metrics exposes the telemetry registry (tests, embedding servers).
func (s *Server) Metrics() *telemetry.Registry { return s.stats.Registry }

// Stats snapshots the service counters.
func (s *Server) Stats() *obs.ServeStatsDoc { return s.stats.Doc() }

// Draining reports whether Drain has started (readiness is its inverse).
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Submit admits spec as a new job: validates it against the budgets,
// reserves a queue slot, and registers the job. The returned *JobError is
// nil on success; its Kind distinguishes invalid specs, overload, and
// draining for the HTTP layer's status mapping.
//
// With a cache attached, admission takes one of three paths, each
// counted exactly once (accepted = hits + misses + coalesced):
//
//   - hit: the artifact store has the result; the job is registered and
//     goes terminal immediately with the stored bytes, never touching
//     the queue or a worker.
//   - coalesced: an identical job is already executing; this one becomes
//     a follower — own ID, own status, own progress stream (its
//     subscribers see the synthetic done frame) — settled by the
//     leader's terminal transition. A follower's own deadline and
//     cancellation still apply, enforced by a context watcher since no
//     worker ever owns it.
//   - miss: the job becomes the single-flight leader and is enqueued
//     normally.
func (s *Server) Submit(spec *JobSpec) (*Job, *JobError) {
	if err := spec.Validate(s.opts.Limits); err != nil {
		s.stats.RejectedInvalid.Add(1)
		s.log.Warn("job rejected", "reason", "invalid", "error", err.Error())
		return nil, &JobError{Kind: ErrKindInvalid, Message: err.Error()}
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, spec.Deadline(s.opts.Limits))
	s.regMu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.regMu.Unlock()
	j := newJob(id, spec, ctx, cancel, s.stats, s.log)

	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		cancel()
		s.stats.RejectedDraining.Add(1)
		s.log.Warn("job rejected", "reason", "draining", "kind", spec.Kind)
		return nil, &JobError{Kind: ErrKindDraining, Message: "server is draining"}
	}
	var key artifact.Key
	if s.cache != nil {
		key = ResultKey(spec)
		if data, ok := s.cache.Get(key); ok {
			s.accept(j)
			s.stats.CacheHits.Add(1)
			j.log.Info("job served from cache", "bytes", len(data))
			j.finish(json.RawMessage(data), nil)
			return j, nil
		}
	}
	if chaosinject.QueueSaturated() {
		cancel()
		s.stats.RejectedQueueFull.Add(1)
		s.log.Warn("job rejected", "reason", "queue_full", "kind", spec.Kind, "chaos", true)
		return nil, &JobError{Kind: ErrKindOverload, Message: "job queue is full (chaos: queue-saturate)"}
	}
	if s.cache != nil {
		s.flightMu.Lock()
		if fe, ok := s.flight[key]; ok {
			fe.followers = append(fe.followers, j)
			leaderID := fe.leader.ID
			s.flightMu.Unlock()
			s.accept(j)
			s.stats.CacheCoalesced.Add(1)
			// No worker will ever own this job, so its deadline and
			// cancellation must settle it directly. finish is idempotent:
			// if the leader already delivered, this no-ops.
			context.AfterFunc(j.ctx, func() {
				j.finish(nil, classifyErr(j.ctx.Err()))
			})
			j.log.Info("job coalesced", "leader", leaderID)
			return j, nil
		}
		// Become the leader. The flight entry and terminal hook are
		// installed before the queue send (a worker may dequeue and finish
		// the job the instant it is enqueued), and flightMu stays held
		// across the send so no follower can attach to a leader that then
		// fails admission.
		s.flight[key] = &flightEntry{leader: j}
		j.onTerminal = func(leader *Job) { s.flightDone(key, leader) }
		select {
		case s.queue <- j:
			s.flightMu.Unlock()
		default:
			delete(s.flight, key)
			j.onTerminal = nil
			s.flightMu.Unlock()
			cancel()
			s.stats.RejectedQueueFull.Add(1)
			s.log.Warn("job rejected", "reason", "queue_full", "kind", spec.Kind,
				"queue_depth", s.opts.QueueDepth)
			return nil, &JobError{Kind: ErrKindOverload,
				Message: fmt.Sprintf("job queue is full (%d queued)", s.opts.QueueDepth)}
		}
		s.accept(j)
		s.stats.CacheMisses.Add(1)
		j.log.Info("job admitted", "queued", len(s.queue))
		return j, nil
	}
	select {
	case s.queue <- j:
	default:
		cancel()
		s.stats.RejectedQueueFull.Add(1)
		s.log.Warn("job rejected", "reason", "queue_full", "kind", spec.Kind,
			"queue_depth", s.opts.QueueDepth)
		return nil, &JobError{Kind: ErrKindOverload,
			Message: fmt.Sprintf("job queue is full (%d queued)", s.opts.QueueDepth)}
	}
	s.accept(j)
	j.log.Info("job admitted", "queued", len(s.queue))
	return j, nil
}

// accept registers an admitted job and settles the admission side of the
// counter algebra: accepted and in-flight move together here; the
// terminal transition settles the other side.
func (s *Server) accept(j *Job) {
	s.regMu.Lock()
	s.reg[j.ID] = j
	s.regMu.Unlock()
	s.stats.JobsAccepted.Add(1)
	s.stats.InFlight.Add(1)
}

// Lookup returns the job with the given ID, or nil.
func (s *Server) Lookup(id string) *Job {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.reg[id]
}

// Drain shuts the server down gracefully: admission stops (readyz goes
// 503, POST returns 503), the queue is closed, and in-flight jobs either
// finish (DrainWait) or are cancelled (DrainCancel). If the pool has not
// emptied after timeout, every remaining job is cancelled regardless of
// policy — cancellation lands within one trace chunk, so the second wait
// is bounded. Returns the final counters for the stats flush. Safe to
// call once; later calls return the counters without re-draining.
func (s *Server) Drain(timeout time.Duration) *obs.ServeStatsDoc {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		return s.stats.Doc()
	}
	s.draining = true
	close(s.queue)
	s.admitMu.Unlock()
	s.log.Info("drain started", "policy", s.opts.DrainPolicy, "timeout", timeout,
		"in_flight", s.stats.InFlight.Value())

	if s.opts.DrainPolicy == DrainCancel {
		s.baseStop()
	}
	done := make(chan struct{})
	go func() { s.pool.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.log.Warn("drain timeout; cancelling remaining jobs")
		s.baseStop()
		<-done
	}
	s.baseStop() // release the base context either way
	doc := s.stats.Doc()
	s.log.Info("drain complete", "done", doc.JobsDone, "failed", doc.JobsFailed,
		"canceled", doc.JobsCanceled, "panics", doc.PanicsRecovered)
	return doc
}

// Handler returns the service's HTTP surface:
//
//	POST   /v1/jobs               submit (?wait=1 blocks until terminal;
//	                              client disconnect cancels the job)
//	GET    /v1/jobs/{id}          job status document
//	GET    /v1/jobs/{id}/events   NDJSON progress stream, terminated by a
//	                              "done" frame (?wait=1 adds heartbeats)
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/stats              service counters (elag-serve-stats/v3)
//	GET    /metrics               Prometheus text exposition
//	GET    /healthz               liveness: 200 while the process serves
//	GET    /readyz                readiness: 200, or 503 once draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(r.Body)
	if err != nil {
		s.stats.RejectedInvalid.Add(1)
		s.log.Warn("job rejected", "reason", "invalid", "error", err.Error())
		writeError(w, http.StatusBadRequest, &JobError{Kind: ErrKindInvalid, Message: err.Error()})
		return
	}
	j, jerr := s.Submit(spec)
	if jerr != nil {
		writeError(w, statusFor(jerr.Kind), jerr)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		// Tie the job to the request: a client that hangs up takes its
		// job with it (within one trace chunk).
		stop := context.AfterFunc(r.Context(), j.Cancel)
		defer stop()
		<-j.Done()
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.Lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound,
			&JobError{Kind: ErrKindNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// defaultHeartbeat paces ?wait=1 event streams when the job is silent.
const defaultHeartbeat = 10 * time.Second

// handleEvents streams a job's live progress frames as NDJSON: one JSON
// object per line, flushed per frame, ending with a "done" frame carrying
// the terminal state. ?wait=1 interleaves heartbeat frames (default every
// 10s, ?heartbeat=DUR to override) so long-silent jobs are
// distinguishable from dead connections. Subscribing costs the job
// nothing until the subscription exists, and a subscriber that arrives
// after the job finished still gets the terminator. Disconnecting only
// unsubscribes — it never cancels the job (unlike POST ?wait=1, an
// events watcher is an observer, not the owner).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.Lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound,
			&JobError{Kind: ErrKindNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	var hb time.Duration
	if r.URL.Query().Get("wait") != "" {
		hb = defaultHeartbeat
	}
	if v := r.URL.Query().Get("heartbeat"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest,
				&JobError{Kind: ErrKindInvalid, Message: fmt.Sprintf("bad heartbeat %q", v)})
			return
		}
		hb = d
	}

	ch, unsub := j.progress.Subscribe(64)
	defer unsub()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	enc := json.NewEncoder(w)

	var hbc <-chan time.Time
	if hb > 0 {
		t := time.NewTicker(hb)
		defer t.Stop()
		hbc = t.C
	}
stream:
	for {
		select {
		case <-r.Context().Done():
			return
		case f, ok := <-ch:
			if !ok {
				break stream // job terminal and buffered frames drained
			}
			if enc.Encode(f) != nil {
				return
			}
			flush()
		case <-hbc:
			if enc.Encode(telemetry.Frame{Type: "heartbeat", Job: j.ID}) != nil {
				return
			}
			flush()
		}
	}
	// Terminator, written from the job's terminal status rather than the
	// broadcast channel so even late subscribers are guaranteed to see it.
	st := j.Status()
	f := telemetry.Frame{Type: "done", Job: j.ID, State: st.State}
	if st.Error != nil {
		f.Error = st.Error.Message
	}
	_ = enc.Encode(f)
	flush()
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.Lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound,
			&JobError{Kind: ErrKindNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteServeStatsJSON(w, s.stats.Doc())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.stats.Registry.Write(w)
}

// statusFor maps an admission JobError kind to its HTTP status.
func statusFor(kind string) int {
	switch kind {
	case ErrKindInvalid:
		return http.StatusBadRequest
	case ErrKindOverload:
		return http.StatusTooManyRequests
	case ErrKindDraining:
		return http.StatusServiceUnavailable
	case ErrKindNotFound:
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

func writeError(w http.ResponseWriter, status int, jerr *JobError) {
	if status == http.StatusTooManyRequests {
		// Backpressure contract: a full queue is transient by
		// construction (workers are draining it); tell clients when to
		// come back instead of letting them hammer.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, &ErrorDoc{Schema: Schema, Error: jerr})
}
