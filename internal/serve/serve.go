// Package serve is the campaign server behind `xtsim -serve`: an
// HTTP/JSON API that turns the deterministic experiment campaign layer
// (internal/expt) into a long-running design-exploration service. Clients
// submit a campaign (experiment ids + run options), get a job id back,
// poll its status, stream per-experiment progress as server-sent events,
// and fetch results as the campaign's text rendering or as JSON artifacts.
// API.md documents every endpoint with schemas and curl examples.
//
// The server exploits the repository's central invariant — a Result
// depends only on (experiment id, Options, code version), and rendering is
// byte-deterministic — in three ways:
//
//   - Memoization. Every per-experiment rendering and JSON artifact is
//     stored in a bounded LRU keyed by expt.CacheKey, so overlapping and
//     repeated sweeps are served from cache at zero simulation cost, with
//     byte-identical bodies. Hit/miss/eviction counters are exported by
//     the metrics endpoint.
//   - Admission control. Campaigns pass through a bounded job queue
//     drained by a fixed worker pool; when the queue is full the submit
//     endpoint answers 429 with a Retry-After header instead of growing
//     without bound — a thundering herd of sweep requests degrades
//     gracefully and deterministically.
//   - Isolation. Experiments execute under expt.Runner's panic recovery
//     and per-experiment timeout (the CLI's -timeout machinery), and each
//     job worker additionally recovers around whole-job bookkeeping, so
//     one bad job never takes down the server.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"xtsim/internal/core"
	"xtsim/internal/expt"
	"xtsim/internal/sim"
)

// Config tunes a Server. The zero value is usable: every field defaults
// as documented.
type Config struct {
	// CacheEntries bounds the result cache (LRU over per-experiment
	// results). Default 512.
	CacheEntries int
	// QueueDepth bounds the admission queue (campaigns admitted but not
	// yet running). When full, submissions are rejected with 429.
	// Default 16.
	QueueDepth int
	// JobWorkers is the number of campaigns executing concurrently.
	// Default 2.
	JobWorkers int
	// ExptJobs is the expt.Runner worker budget within each campaign:
	// experiments and their sweep cells running at once. Default
	// runtime.NumCPU().
	ExptJobs int
	// Timeout bounds each experiment's wall-clock time, exactly like
	// `xtsim -timeout`; 0 means none.
	Timeout time.Duration
	// RetryAfter is the client backoff hint sent with 429 responses.
	// Default 2s.
	RetryAfter time.Duration
	// Lookup resolves an experiment id; default expt.ByID. Tests inject
	// synthetic experiments here.
	Lookup func(id string) (expt.Experiment, error)
	// List enumerates the experiments the server offers, in campaign
	// order; default expt.All.
	List func() []expt.Experiment
	// Version is the code-version component of cache keys; default
	// expt.CodeVersion().
	Version string
}

// Server is one running campaign service: the memo cache, the job store,
// the admission queue, and the worker pool draining it. Create with New,
// mount Handler on an HTTP server, and Close when done.
type Server struct {
	cfg   Config
	cache *cache
	store *store
	queue chan *Job
	stop  chan struct{}
	start time.Time
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 512
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.ExptJobs <= 0 {
		cfg.ExptJobs = runtime.NumCPU()
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.Lookup == nil {
		cfg.Lookup = expt.ByID
	}
	if cfg.List == nil {
		cfg.List = expt.All
	}
	if cfg.Version == "" {
		cfg.Version = expt.CodeVersion()
	}
	s := &Server{
		cfg:   cfg,
		cache: newCache(cfg.CacheEntries),
		store: newStore(),
		queue: make(chan *Job, cfg.QueueDepth),
		stop:  make(chan struct{}),
		start: time.Now(),
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.worker()
	}
	return s
}

// Close stops the worker pool. In-flight jobs finish; queued jobs are
// abandoned (their waiters are not released — Close is for process
// shutdown, not graceful drain).
func (s *Server) Close() {
	close(s.stop)
}

// submit admits a campaign: it allocates a job id and enqueues the job,
// or rejects it when the queue is full. Ids are assigned only to admitted
// jobs, so they stay dense.
func (s *Server) submit(exps []expt.Experiment, opts expt.Options) (*Job, bool) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	job := newJob(fmt.Sprintf("job-%06d", s.store.seq+1), exps, opts, s.cfg.Version)
	select {
	case s.queue <- job:
		s.store.seq++
		s.store.jobs[job.id] = job
		s.store.submitted++
		return job, true
	default:
		s.store.rejected++
		return nil, false
	}
}

func (s *Server) worker() {
	for {
		select {
		case job := <-s.queue:
			s.runJob(job)
		case <-s.stop:
			return
		}
	}
}

// runJob executes one admitted campaign: serve every experiment already
// memoized straight from the cache, run the misses through an expt.Runner
// (panic recovery, per-experiment timeout, within-campaign parallelism,
// completion-order progress via OnComplete), memoize what they produce,
// and assemble the request-order response bodies. The outer recover is a
// second line of defence around the server's own bookkeeping — a
// panicking experiment is already contained by the Runner and reported as
// that experiment's failure.
func (s *Server) runJob(job *Job) {
	defer func() {
		if p := recover(); p != nil {
			job.complete(nil, nil, fmt.Sprintf("internal error: %v", p))
			s.finishCounters(job)
		}
	}()

	job.setState(JobRunning)
	job.appendEvent(Event{Type: "started"})

	entries := make([]*entry, len(job.exps))
	var missExps []expt.Experiment
	var missIdx []int
	for i := range job.exps {
		if e, ok := s.cache.get(job.keys[i]); ok {
			entries[i] = e
			job.finishExp(job.exps[i].ID, true, e.failed, 0, "")
		} else {
			missExps = append(missExps, job.exps[i])
			missIdx = append(missIdx, i)
		}
	}
	s.store.tallyOutcomes(uint64(len(job.exps)-len(missExps)), uint64(len(missExps)))

	if len(missExps) > 0 {
		r := &expt.Runner{
			Jobs:    s.cfg.ExptJobs,
			Opts:    job.opts,
			Timeout: s.cfg.Timeout,
			// OnComplete calls are serialized by the Runner; the index is
			// into missExps, so missIdx maps it back to request order.
			OnComplete: func(i int, st expt.Status) {
				e := buildEntry(job.keys[missIdx[i]], st, job.opts)
				s.cache.put(e)
				entries[missIdx[i]] = e
				errText := ""
				if st.Err != nil {
					errText = st.Err.Error()
				}
				job.finishExp(st.Experiment.ID, false, st.Err != nil, st.Wall, errText)
			},
		}
		r.Run(missExps)
	}

	var text bytes.Buffer
	artifacts := make([][]byte, len(entries))
	failed := 0
	for i, e := range entries {
		text.Write(e.text)
		artifacts[i] = e.artifact
		if e.failed {
			failed++
		}
	}
	errText := ""
	if failed > 0 {
		errText = fmt.Sprintf("%d of %d experiments failed", failed, len(entries))
	}
	job.complete(text.Bytes(), artifacts, errText)
	s.finishCounters(job)
}

func (s *Server) finishCounters(job *Job) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	s.store.completed++
	job.mu.Lock()
	failed := job.failedExps
	job.mu.Unlock()
	if failed > 0 {
		s.store.failed++
	}
}

// buildEntry renders one finished experiment into its memoized form: the
// campaign-exact text rendering and the compact Artifact JSON. Both are
// deterministic except WallSeconds inside the artifact, which freezes the
// fill-time measurement — replayed verbatim on every hit, keeping hit
// bodies byte-identical.
func buildEntry(key string, st expt.Status, opts expt.Options) *entry {
	var text bytes.Buffer
	st.Render(&text) // cannot fail on a bytes.Buffer
	art, err := json.Marshal(st.Artifact(opts))
	if err != nil {
		// Attachments are the only marshal risk (experiment-provided raw
		// JSON); degrade to an error artifact rather than dropping the job.
		art, _ = json.Marshal(expt.Artifact{
			SchemaVersion: expt.ArtifactSchemaVersion,
			ID:            st.Experiment.ID,
			Error:         fmt.Sprintf("artifact marshal failed: %v", err),
		})
	}
	return &entry{
		key:      key,
		text:     text.Bytes(),
		artifact: art,
		failed:   st.Err != nil,
	}
}

// Metrics is the metrics-endpoint document.
type Metrics struct {
	Cache  CacheStats  `json:"cache"`
	Queue  QueueStats  `json:"queue"`
	Jobs   JobStats    `json:"jobs"`
	Engine EngineStats `json:"engine"`
	// UptimeSeconds is host wall-clock since New; nondeterministic,
	// informational.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// EngineStats is the live simulation-engine section of the metrics
// endpoint: process-wide monotonic counters from the discrete-event layer,
// so an operator can see how much simulation work the server has actually
// done (cache hits execute zero events) and why runs left their requested
// fast path.
type EngineStats struct {
	// EventsExecuted counts discrete events executed by every engine in
	// the process (serial and sharded domains alike).
	EventsExecuted uint64 `json:"events_executed"`
	// WindowBarriers counts conservative time-window barriers crossed by
	// sharded-scheduler runs.
	WindowBarriers uint64 `json:"window_barriers"`
	// Fallbacks tallies, by reason, the parallel/hybrid requests declined
	// when a run's engine was planned and the exact hybrid tier's runtime
	// aborts, sorted for deterministic rendering.
	Fallbacks []core.FallbackCount `json:"fallbacks,omitempty"`
}

// QueueStats is the admission section of the metrics endpoint.
type QueueStats struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	Workers  int `json:"workers"`
}

func (s *Server) metrics() Metrics {
	return Metrics{
		Cache: s.cache.stats(),
		Queue: QueueStats{
			Depth:    len(s.queue),
			Capacity: cap(s.queue),
			Workers:  s.cfg.JobWorkers,
		},
		Jobs: s.store.stats(),
		Engine: EngineStats{
			EventsExecuted: sim.TotalEventsExecuted(),
			WindowBarriers: sim.TotalWindowBarriers(),
			Fallbacks:      core.FallbackCounts(),
		},
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}
