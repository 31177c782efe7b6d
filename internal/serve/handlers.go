package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"xtsim/internal/expt"
)

// Handler returns the server's HTTP API (see API.md for the reference):
//
//	GET  /api/v1/healthz          liveness
//	GET  /api/v1/metrics          cache / queue / job counters
//	GET  /api/v1/experiments      registry with parameter schema
//	POST /api/v1/campaigns        submit a campaign (?wait=1 to block)
//	GET  /api/v1/jobs/{id}        job status
//	GET  /api/v1/jobs/{id}/result rendered text or JSON artifacts
//	GET  /api/v1/jobs/{id}/events server-sent progress events
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	return mux
}

// writeJSON writes v as indented JSON (indented so the documented curl
// examples are readable without a JSON formatter).
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"response marshal failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(buf, '\n'))
}

// apiError is the error-response body shared by every endpoint.
type apiError struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/409
	// responses for clients that prefer the body.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"experiments": len(s.cfg.List()),
		"version":     s.cfg.Version,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics())
}

// ExperimentInfo is one registry row of the experiments endpoint.
type ExperimentInfo struct {
	ID       string `json:"id"`
	Artifact string `json:"artifact"`
	Title    string `json:"title"`
}

// OptionsSchema documents each campaign-options field: the experiments
// share one parameter set (expt.Options), so the schema is a fixed
// field → "type — meaning" map rendered with deterministic key order.
type OptionsSchema struct {
	Short     string `json:"short"`
	Telemetry string `json:"telemetry"`
	CritPath  string `json:"critpath"`
	Hybrid    string `json:"hybrid"`
	CkptEvery string `json:"ckpt_every"`
	Timeline  string `json:"timeline"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	all := s.cfg.List()
	infos := make([]ExperimentInfo, len(all))
	for i, e := range all {
		infos[i] = ExperimentInfo{ID: e.ID, Artifact: e.Artifact, Title: e.Title}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments": infos,
		"options_schema": OptionsSchema{
			Short:     "bool — reduced-scale quick run (drops extreme-scale sweep points, keeps shapes)",
			Telemetry: "bool — attach the telemetry JSON export to experiments that collect it",
			CritPath:  "bool — attach the critical-path JSON exports to experiments that record causal graphs",
			Hybrid:    "string — hybrid rank fast path: \"exact\" or \"analytic\" requests that tier, \"off\" forces the event-driven engine, \"\" keeps per-experiment defaults; \"exact\" output is byte-identical to the DES",
			CkptEvery: "int — checkpoint cadence in steps for checkpoint-aware experiments (ext-ckpt); 0 keeps each experiment's default, negative is rejected",
			Timeline:  "bool — attach the phase-resolved timeline JSON export to experiments that record it (ext-timeline)",
		},
	})
}

// CampaignRequest is the submit-endpoint body.
type CampaignRequest struct {
	// Experiments lists experiment ids in the order results should
	// render; the single element "all" expands to the full registry in
	// campaign order.
	Experiments []string `json:"experiments"`
	// Options is the run configuration; it is part of the cache key.
	Options expt.Options `json:"options"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Experiments) == 0 {
		writeError(w, http.StatusBadRequest, "experiments must name at least one experiment id (or \"all\")")
		return
	}
	if err := req.Options.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad options: %v", err)
		return
	}

	var exps []expt.Experiment
	if len(req.Experiments) == 1 && req.Experiments[0] == "all" {
		exps = s.cfg.List()
	} else {
		exps = make([]expt.Experiment, len(req.Experiments))
		for i, id := range req.Experiments {
			e, err := s.cfg.Lookup(id)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			exps[i] = e
		}
	}

	job, ok := s.submit(exps, req.Options)
	if !ok {
		retry := int(s.cfg.RetryAfter.Seconds())
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Error:             fmt.Sprintf("job queue full (%d queued); retry later", cap(s.queue)),
			RetryAfterSeconds: retry,
		})
		return
	}

	// ?wait=1 blocks until the job completes (or the client goes away) and
	// returns the final status — the synchronous mode scripted clients and
	// the documented curl examples use for small campaigns.
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-job.done:
			writeJSON(w, http.StatusOK, job.view())
		case <-r.Context().Done():
		}
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+job.id)
	writeJSON(w, http.StatusAccepted, job.view())
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return job, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, job.view())
	}
}

// ResultDocument is the JSON form of a finished job's results: the
// request-order artifacts, embedded verbatim from the memo cache so a
// cache hit replays the exact bytes of the run that filled it.
type ResultDocument struct {
	ID        string            `json:"id"`
	Options   expt.Options      `json:"options"`
	Artifacts []json.RawMessage `json:"artifacts"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	job.mu.Lock()
	state, text, artifacts := job.state, job.text, job.artifacts
	job.mu.Unlock()
	if state != JobDone {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, apiError{
			Error:             fmt.Sprintf("job %s is %s; fetch the result once it is done", job.id, state),
			RetryAfterSeconds: 1,
		})
		return
	}

	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/json") {
		format = "json"
	}
	switch format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(text)
	case "json":
		raw := make([]json.RawMessage, len(artifacts))
		for i, a := range artifacts {
			raw[i] = json.RawMessage(a)
		}
		writeJSON(w, http.StatusOK, ResultDocument{
			ID:        job.id,
			Options:   job.opts,
			Artifacts: raw,
		})
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want text or json)", format)
	}
}

// handleEvents streams the job's progress as server-sent events: the full
// retained history first (late subscribers replay from the start), then
// live events until the job is done, at which point the stream closes.
// Each event is `id: <seq>`, `event: <type>`, and a `data:` JSON payload.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// cond.Wait cannot watch the request context, so a watcher goroutine
	// converts client disconnect into a broadcast; the loop then observes
	// ctx.Err and returns.
	ctx := r.Context()
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			job.cond.Broadcast()
		case <-stopWatch:
		}
	}()

	cursor := 0
	job.mu.Lock()
	for {
		for cursor < len(job.events) {
			ev := job.events[cursor]
			cursor++
			job.mu.Unlock()
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			if canFlush {
				flusher.Flush()
			}
			job.mu.Lock()
		}
		if job.state == JobDone || ctx.Err() != nil {
			break
		}
		job.cond.Wait()
	}
	job.mu.Unlock()
}
