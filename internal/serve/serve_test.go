package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xtsim/internal/expt"
)

// fastExp is a synthetic experiment that completes immediately with a
// deterministic table.
func fastExp(id string) expt.Experiment {
	return expt.Experiment{
		ID: id, Artifact: "Fake", Title: "fast " + id,
		Run: func(res *expt.Result, o expt.Options) error {
			tab := res.Table()
			tab.Row("metric", "value")
			tab.Row(id, "42")
			if o.Short {
				res.Textln("short run")
			}
			res.AddSimSeconds(1.5)
			return nil
		},
	}
}

// gatedExp blocks until gate closes, signalling on started when it begins
// simulating — the lever for deterministic queue-full and in-flight tests.
func gatedExp(id string, started chan<- string, gate <-chan struct{}) expt.Experiment {
	return expt.Experiment{
		ID: id, Artifact: "Fake", Title: "gated " + id,
		Run: func(res *expt.Result, _ expt.Options) error {
			started <- id
			<-gate
			res.Textln(id + " ran")
			return nil
		},
	}
}

func boomExp(id string) expt.Experiment {
	return expt.Experiment{
		ID: id, Artifact: "Fake", Title: "panics",
		Run: func(*expt.Result, expt.Options) error { panic("synthetic experiment panic") },
	}
}

// testServer builds a Server over a synthetic registry and an httptest
// front end.
func testServer(t *testing.T, cfg Config, exps ...expt.Experiment) (*Server, *httptest.Server) {
	t.Helper()
	byID := make(map[string]expt.Experiment, len(exps))
	for _, e := range exps {
		byID[e.ID] = e
	}
	cfg.Lookup = func(id string) (expt.Experiment, error) {
		e, ok := byID[id]
		if !ok {
			return expt.Experiment{}, fmt.Errorf("expt: unknown experiment %q", id)
		}
		return e, nil
	}
	cfg.List = func() []expt.Experiment { return exps }
	cfg.Version = "test-version"
	srv := New(cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func post(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func decodeView(t *testing.T, body []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding job view from %s: %v", body, err)
	}
	return v
}

// waitDone polls the status endpoint until the job is done.
func waitDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body, _ := get(t, base+"/api/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll for %s: HTTP %d: %s", id, code, body)
		}
		v := decodeView(t, body)
		if v.State == JobDone {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

func TestSubmitPollFetchRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{}, fastExp("alpha"), fastExp("beta"))

	code, body, hdr := post(t, ts.URL+"/api/v1/campaigns",
		`{"experiments":["alpha","beta"],"options":{"short":true}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	v := decodeView(t, body)
	if v.ID != "job-000001" {
		t.Fatalf("first job id = %q, want job-000001", v.ID)
	}
	if loc := hdr.Get("Location"); loc != "/api/v1/jobs/job-000001" {
		t.Fatalf("Location = %q", loc)
	}

	v = waitDone(t, ts.URL, v.ID)
	if v.ExperimentsDone != 2 || v.ExperimentsFailed != 0 || v.ResultURL == "" {
		t.Fatalf("final view = %+v", v)
	}
	if len(v.Experiments) != 2 || v.Experiments[0] != "alpha" || !v.Options.Short {
		t.Fatalf("view should echo the campaign spec: %+v", v)
	}

	code, text, hdr := get(t, ts.URL+v.ResultURL)
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("text result: HTTP %d, Content-Type %q", code, hdr.Get("Content-Type"))
	}
	for _, want := range []string{"== Fake: fast alpha ==", "alpha   42", "== Fake: fast beta ==", "short run"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text result missing %q:\n%s", want, text)
		}
	}

	code, body, _ = get(t, ts.URL+v.ResultURL+"?format=json")
	if code != http.StatusOK {
		t.Fatalf("json result: HTTP %d: %s", code, body)
	}
	var doc ResultDocument
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Artifacts) != 2 || doc.ID != "job-000001" {
		t.Fatalf("result document = %+v", doc)
	}
	var art expt.Artifact
	if err := json.Unmarshal(doc.Artifacts[0], &art); err != nil {
		t.Fatal(err)
	}
	if art.ID != "alpha" || art.SimSeconds != 1.5 || !art.Options.Short {
		t.Fatalf("artifact 0 = %+v", art)
	}
}

func TestCacheHitByteIdenticalAndCounted(t *testing.T) {
	srv, ts := testServer(t, Config{}, fastExp("alpha"))
	campaign := `{"experiments":["alpha"],"options":{"short":true}}`

	code, body, _ := post(t, ts.URL+"/api/v1/campaigns?wait=1", campaign)
	if code != http.StatusOK {
		t.Fatalf("first submit: HTTP %d: %s", code, body)
	}
	first := decodeView(t, body)
	if first.ExperimentsCached != 0 {
		t.Fatalf("first run must simulate, not hit: %+v", first)
	}
	_, text1, _ := get(t, ts.URL+first.ResultURL)
	_, json1, _ := get(t, ts.URL+first.ResultURL+"?format=json")

	code, body, _ = post(t, ts.URL+"/api/v1/campaigns?wait=1", campaign)
	if code != http.StatusOK {
		t.Fatalf("second submit: HTTP %d: %s", code, body)
	}
	second := decodeView(t, body)
	if second.ExperimentsCached != 1 {
		t.Fatalf("second run must be served from cache: %+v", second)
	}
	_, text2, _ := get(t, ts.URL+second.ResultURL)
	if string(text1) != string(text2) {
		t.Fatalf("cache hit text body differs:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
	_, json2, _ := get(t, ts.URL+second.ResultURL+"?format=json")
	// The JSON documents embed the memoized artifact verbatim; only the
	// job id wrapper differs, so normalize it before comparing.
	norm := func(b []byte, id string) string {
		return strings.ReplaceAll(string(b), id, "JOB")
	}
	if norm(json1, first.ID) != norm(json2, second.ID) {
		t.Fatalf("cache hit JSON body differs:\n--- first ---\n%s\n--- second ---\n%s", json1, json2)
	}

	// A different option set must miss: options are part of the key.
	code, body, _ = post(t, ts.URL+"/api/v1/campaigns?wait=1",
		`{"experiments":["alpha"],"options":{"short":false}}`)
	if code != http.StatusOK {
		t.Fatal("third submit failed")
	}
	if third := decodeView(t, body); third.ExperimentsCached != 0 {
		t.Fatalf("different options must not hit the cache: %+v", third)
	}

	m := srv.metrics()
	if m.Cache.Hits != 1 || m.Cache.Misses != 2 {
		t.Fatalf("cache counters = %+v, want 1 hit / 2 misses", m.Cache)
	}
	if m.Jobs.Submitted != 3 || m.Jobs.Completed != 3 {
		t.Fatalf("job counters = %+v", m.Jobs)
	}
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	started := make(chan string, 4)
	gate := make(chan struct{})
	_, ts := testServer(t,
		Config{QueueDepth: 1, JobWorkers: 1, RetryAfter: 3 * time.Second},
		gatedExp("g1", started, gate), gatedExp("g2", started, gate))

	// Job 1 is picked up by the single worker and blocks inside its
	// experiment; job 2 then occupies the whole depth-1 queue.
	code, body, _ := post(t, ts.URL+"/api/v1/campaigns", `{"experiments":["g1"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("job 1: HTTP %d: %s", code, body)
	}
	if id := <-started; id != "g1" {
		t.Fatalf("worker started %q, want g1", id)
	}
	code, body, _ = post(t, ts.URL+"/api/v1/campaigns", `{"experiments":["g2"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("job 2: HTTP %d: %s", code, body)
	}

	code, body, hdr := post(t, ts.URL+"/api/v1/campaigns", `{"experiments":["g2"]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3 should be rejected: HTTP %d: %s", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || e.RetryAfterSeconds != 3 || !strings.Contains(e.Error, "queue full") {
		t.Fatalf("429 body = %s", body)
	}

	close(gate) // drain: both admitted jobs must still finish
	waitDone(t, ts.URL, "job-000001")
	v := waitDone(t, ts.URL, "job-000002")
	if v.ExperimentsFailed != 0 {
		t.Fatalf("queued job failed after drain: %+v", v)
	}
	if _, body, _ := get(t, ts.URL+"/api/v1/metrics"); !strings.Contains(string(body), `"rejected": 1`) {
		t.Fatalf("metrics should count the rejection:\n%s", body)
	}
}

func TestPanicIsolation(t *testing.T) {
	srv, ts := testServer(t, Config{}, fastExp("alpha"), boomExp("boom"))

	code, body, _ := post(t, ts.URL+"/api/v1/campaigns?wait=1", `{"experiments":["boom","alpha"]}`)
	if code != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	v := decodeView(t, body)
	if v.State != JobDone || v.ExperimentsFailed != 1 || v.ExperimentsDone != 2 {
		t.Fatalf("panicking campaign view = %+v", v)
	}
	_, text, _ := get(t, ts.URL+v.ResultURL)
	if !strings.Contains(string(text), "-- boom FAILED: panic: synthetic experiment panic --") {
		t.Fatalf("result should carry the failure line:\n%s", text)
	}
	if !strings.Contains(string(text), "alpha   42") {
		t.Fatalf("sibling experiment should still render:\n%s", text)
	}

	// The server survives: a fresh campaign still runs to completion.
	code, body, _ = post(t, ts.URL+"/api/v1/campaigns?wait=1", `{"experiments":["alpha"]}`)
	if code != http.StatusOK || decodeView(t, body).ExperimentsFailed != 0 {
		t.Fatalf("server unhealthy after panic: HTTP %d: %s", code, body)
	}
	if m := srv.metrics(); m.Jobs.Failed != 1 || m.Jobs.Completed != 2 {
		t.Fatalf("job counters = %+v", m.Jobs)
	}
}

func TestEventsStreamReplaysHistory(t *testing.T) {
	_, ts := testServer(t, Config{}, fastExp("alpha"))
	campaign := `{"experiments":["alpha"]}`
	post(t, ts.URL+"/api/v1/campaigns?wait=1", campaign) // miss
	code, body, _ := post(t, ts.URL+"/api/v1/campaigns?wait=1", campaign)
	if code != http.StatusOK {
		t.Fatal("submit failed")
	}
	v := decodeView(t, body)

	code, stream, hdr := get(t, ts.URL+v.EventsURL)
	if code != http.StatusOK || hdr.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events: HTTP %d, Content-Type %q", code, hdr.Get("Content-Type"))
	}
	s := string(stream)
	for _, ev := range []string{"event: queued", "event: started", "event: experiment", "event: done"} {
		if !strings.Contains(s, ev) {
			t.Errorf("stream missing %q:\n%s", ev, s)
		}
	}
	if !strings.Contains(s, `"cached":true`) {
		t.Errorf("cached job's experiment event should say cached:\n%s", s)
	}
	if strings.Index(s, "event: queued") > strings.Index(s, "event: done") {
		t.Errorf("replay out of order:\n%s", s)
	}
}

func TestEventsStreamFollowsLiveJob(t *testing.T) {
	started := make(chan string, 1)
	gate := make(chan struct{})
	_, ts := testServer(t, Config{}, gatedExp("g1", started, gate))

	post(t, ts.URL+"/api/v1/campaigns", `{"experiments":["g1"]}`)
	<-started // job running, blocked inside the experiment

	resp, err := http.Get(ts.URL + "/api/v1/jobs/job-000001/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(gate)
	stream, err := io.ReadAll(resp.Body) // returns when the job finishes
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{"event: queued", "event: started", `"experiment":"g1"`, "event: done"} {
		if !strings.Contains(string(stream), ev) {
			t.Errorf("live stream missing %q:\n%s", ev, stream)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t, Config{}, fastExp("alpha"))

	if code, body, _ := post(t, ts.URL+"/api/v1/campaigns", `{"experiments":["nope"]}`); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "unknown experiment") {
		t.Errorf("unknown experiment: HTTP %d: %s", code, body)
	}
	if code, _, _ := post(t, ts.URL+"/api/v1/campaigns", `{"experiments":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty campaign should be 400, got %d", code)
	}
	if code, _, _ := post(t, ts.URL+"/api/v1/campaigns", `{"bogus":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field should be 400, got %d", code)
	}
	if code, body, _ := post(t, ts.URL+"/api/v1/campaigns",
		`{"experiments":["alpha"],"options":{"hybrid":"warp"}}`); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "hybrid") {
		t.Errorf("unknown hybrid mode should be 400: HTTP %d: %s", code, body)
	}
	// The worker budget is the server's -jobs, not a campaign option.
	if code, body, _ := post(t, ts.URL+"/api/v1/campaigns",
		`{"experiments":["alpha"],"options":{"shards":4}}`); code != http.StatusBadRequest ||
		!strings.Contains(string(body), `unknown field \"shards\"`) {
		t.Errorf("a shards option should be 400 naming the unknown field: HTTP %d: %s", code, body)
	}
	if code, body, _ := post(t, ts.URL+"/api/v1/campaigns",
		`{"experiments":["alpha"],"options":{"ckpt_every":-1}}`); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "ckpt-every") {
		t.Errorf("negative ckpt_every should be 400: HTTP %d: %s", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/api/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job should be 404, got %d", code)
	}
	if code, _, _ := get(t, ts.URL+"/api/v1/jobs/job-999999/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result should be 404, got %d", code)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	started := make(chan string, 1)
	gate := make(chan struct{})
	_, ts := testServer(t, Config{}, gatedExp("g1", started, gate))
	post(t, ts.URL+"/api/v1/campaigns", `{"experiments":["g1"]}`)
	<-started

	code, body, hdr := get(t, ts.URL+"/api/v1/jobs/job-000001/result")
	if code != http.StatusConflict || hdr.Get("Retry-After") == "" {
		t.Fatalf("running job result: HTTP %d (Retry-After %q): %s", code, hdr.Get("Retry-After"), body)
	}
	close(gate)
	waitDone(t, ts.URL, "job-000001")
	if code, _, _ := get(t, ts.URL+"/api/v1/jobs/job-000001/result?format=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus format should be 400, got %d", code)
	}
}

func TestHealthMetricsExperimentsEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{}, fastExp("alpha"), fastExp("beta"))

	code, body, _ := get(t, ts.URL+"/api/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz: HTTP %d: %s", code, body)
	}
	code, body, _ = get(t, ts.URL+"/api/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("experiments: HTTP %d", code)
	}
	var doc struct {
		Experiments   []ExperimentInfo `json:"experiments"`
		OptionsSchema OptionsSchema    `json:"options_schema"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Experiments) != 2 || doc.Experiments[0].ID != "alpha" || doc.OptionsSchema.Short == "" {
		t.Fatalf("experiments document = %+v", doc)
	}
	code, body, _ = get(t, ts.URL+"/api/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Capacity != 512 || m.Queue.Capacity != 16 || m.Queue.Workers != 2 {
		t.Fatalf("default-config metrics = %+v", m)
	}
}

// TestAgainstRealRegistry exercises the default Lookup/List wiring: a tiny
// real experiment (fig2, short) round-trips and hits the cache on repeat.
func TestAgainstRealRegistry(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	campaign := `{"experiments":["fig2"],"options":{"short":true}}`
	code, body, _ := post(t, ts.URL+"/api/v1/campaigns?wait=1", campaign)
	if code != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	v := decodeView(t, body)
	_, text1, _ := get(t, ts.URL+v.ResultURL)
	if !strings.Contains(string(text1), "== Figure 2:") {
		t.Fatalf("fig2 result:\n%s", text1)
	}

	code, body, _ = post(t, ts.URL+"/api/v1/campaigns?wait=1", campaign)
	if code != http.StatusOK {
		t.Fatal("second submit failed")
	}
	v2 := decodeView(t, body)
	if v2.ExperimentsCached != 1 {
		t.Fatalf("repeat fig2 should hit the cache: %+v", v2)
	}
	_, text2, _ := get(t, ts.URL+v2.ResultURL)
	if string(text1) != string(text2) {
		t.Fatal("cached fig2 body differs from the original")
	}
}
