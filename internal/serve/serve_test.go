package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"elag"
	"elag/internal/chaosinject"
)

// quickSrc is a small program (a few hundred dynamic instructions) for
// jobs that should finish instantly.
const quickSrc = `
int arr[16];

int main() {
	int s = 0;
	for (int i = 0; i < 16; i++) {
		arr[i] = i * 3;
		s = s + arr[i];
	}
	print_int(s);
	return s;
}
`

// busySrc runs a few million dynamic instructions — long enough that a
// deadline, cancellation, or injected slow chunks land mid-run.
const busySrc = `
int main() {
	int s = 0;
	for (int i = 0; i < 1000000; i++) {
		s = s + i;
	}
	return s;
}
`

func simSpec(src string, fuel int64) *JobSpec {
	return &JobSpec{
		Kind:   KindSimulate,
		Source: src,
		Configs: []ConfigSpec{
			{Name: "base"},
			{Name: "compiler", Table: 256},
		},
		Fuel: fuel,
	}
}

// leakCheck snapshots the goroutine count; the returned func fails the
// test if, after a settle window, more goroutines are alive than before.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			runtime.GC()
			if n = runtime.NumGoroutine(); n <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d before, %d after settle\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// testService starts a Server plus its HTTP front end. Cleanup drains and
// closes both in the right order.
func testService(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain(10 * time.Second)
		ts.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec *JobSpec, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (*http.Response, StatusDoc) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return resp, doc
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) StatusDoc {
	return waitTerminalFor(t, ts, id, 30*time.Second)
}

func waitTerminalFor(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) StatusDoc {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		_, doc := getStatus(t, ts, id)
		switch doc.State {
		case StateDone, StateFailed, StateCanceled:
			return doc
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return StatusDoc{}
}

func TestCompileJobWait(t *testing.T) {
	check := leakCheck(t)
	s, ts := testService(t, Options{Workers: 2})
	resp, raw := postJob(t, ts, &JobSpec{Kind: KindCompile, Source: quickSrc}, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: status %d, body %s", resp.StatusCode, raw)
	}
	var doc struct {
		Schema string `json:"schema"`
		ID     string `json:"id"`
		Kind   string `json:"kind"`
		State  string `json:"state"`
		Result struct {
			MachineInsts int    `json:"machine_insts"`
			Pipeline     string `json:"pipeline"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, raw)
	}
	if doc.Schema != Schema {
		t.Errorf("schema = %q, want %q", doc.Schema, Schema)
	}
	if doc.State != StateDone {
		t.Errorf("state = %q, want done (body %s)", doc.State, raw)
	}
	if doc.Result.MachineInsts == 0 || doc.Result.Pipeline == "" {
		t.Errorf("compile result missing program facts: %s", raw)
	}
	s.Drain(10 * time.Second)
	ts.Close()
	check()
}

// TestSimulateJobMatchesEngine is the byte-identical contract: a simulate
// job's metrics documents must serialize exactly as the same run made
// directly through the facade (the path elag-sim takes).
func TestSimulateJobMatchesEngine(t *testing.T) {
	_, ts := testService(t, Options{Workers: 2})
	spec := simSpec(quickSrc, 300_000)
	resp, raw := postJob(t, ts, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var doc struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != StateDone {
		t.Fatalf("state = %q, body %s", doc.State, raw)
	}

	// The same run, straight through the engine.
	p, err := elag.Build(quickSrc, elag.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var specs []elag.BatchSpec
	for _, c := range spec.Configs {
		cfg, err := elag.NamedConfig(c.Name, c.Table, c.Regs)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, elag.BatchSpec{Config: cfg})
	}
	metrics, runRes, err := p.SimulateBatchContext(context.Background(), specs, spec.Fuel, spec.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	want := &SimulateResult{Output: runRes.Output()}
	for i, m := range metrics {
		want.Metrics = append(want.Metrics, elag.NewMetricsDoc("source", spec.Configs[i].Name, m))
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize the job's result through the same marshal.
	var got SimulateResult
	if err := json.Unmarshal(doc.Result, &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("service result diverges from direct engine run:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

func TestAsyncLifecycleAndCancel(t *testing.T) {
	_, ts := testService(t, Options{Workers: 1})
	// Async submit returns 202 with a queued/running document.
	resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d, body %s", resp.StatusCode, raw)
	}
	var doc StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID == "" || doc.Schema != Schema {
		t.Fatalf("bad submit doc: %s", raw)
	}
	if got := waitTerminal(t, ts, doc.ID); got.State != StateDone {
		t.Fatalf("job ended %q (error %+v), want done", got.State, got.Error)
	}

	// DELETE cancels: a busy job aborts within one chunk.
	resp, raw = postJob(t, ts, simSpec(busySrc, 40_000_000), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit busy: status %d, body %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+doc.ID, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	got := waitTerminal(t, ts, doc.ID)
	if got.State != StateCanceled {
		t.Fatalf("cancelled job ended %q, want canceled", got.State)
	}
	if got.Error == nil || got.Error.Kind != ErrKindCanceled {
		t.Fatalf("cancelled job error = %+v, want kind %q", got.Error, ErrKindCanceled)
	}
}

func TestRejectsInvalidSpecs(t *testing.T) {
	_, ts := testService(t, Options{Workers: 1})
	bodies := []string{
		``,                                // empty
		`{`,                               // truncated
		`[]`,                              // wrong JSON shape
		`{"kind":"simulate"}{"k":1}`,      // trailing document
		`{"kind":"nope"}`,                 // unknown kind
		`{"kind":"compile"}`,              // compile without source
		`{"kind":"simulate","fuel":1}`,    // simulate without program
		`{"kind":"grid"}`,                 // grid without fuel budget
		`{"kind":"compile","bogus":true}`, // unknown field
		`{"schema":"elag-serve/v0",` + // wrong schema version
			`"kind":"compile","source":"int main(){return 0;}"}`,
		`{"kind":"simulate","workload":"no-such-bench",` + // unknown workload
			`"configs":[{"name":"base"}],"fuel":1000}`,
		`{"kind":"simulate","source":"int main(){return 0;}",` + // unknown config
			`"configs":[{"name":"warp"}],"fuel":1000}`,
		`{"kind":"simulate","source":"int main(){return 0;}",` + // over fuel budget
			`"configs":[{"name":"base"}],"fuel":999999999999}`,
		`{"kind":"simulate","source":"int main(){return 0;}",` + // over deadline budget
			`"configs":[{"name":"base"}],"fuel":1000,"deadline_ms":99999999}`,
	}
	for _, body := range bodies {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %.60q: status %d, want 400 (%s)", body, resp.StatusCode, raw)
			continue
		}
		var doc ErrorDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("body %.60q: malformed error doc %s", body, raw)
			continue
		}
		if doc.Schema != Schema || doc.Error == nil || doc.Error.Kind != ErrKindInvalid {
			t.Errorf("body %.60q: error doc %s, want schema %q kind %q", body, raw, Schema, ErrKindInvalid)
		}
	}

	// Unknown job IDs are typed 404s.
	resp, doc := getStatus(t, ts, "job-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
	_ = doc
}

func TestQueueBackpressure(t *testing.T) {
	defer chaosinject.Reset()
	chaosinject.Reset()
	// One worker crawling through slow chunks, a one-deep queue: the
	// third job must bounce with 429 + Retry-After.
	if err := chaosinject.Parse("slow-chunk=50ms"); err != nil {
		t.Fatal(err)
	}
	_, ts := testService(t, Options{Workers: 1, QueueDepth: 1, DrainPolicy: DrainCancel})
	resp1, raw := postJob(t, ts, simSpec(busySrc, 40_000_000), "")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d, body %s", resp1.StatusCode, raw)
	}
	resp2, raw := postJob(t, ts, simSpec(busySrc, 40_000_000), "")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d, body %s", resp2.StatusCode, raw)
	}
	resp3, raw := postJob(t, ts, simSpec(busySrc, 40_000_000), "")
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429 (body %s)", resp3.StatusCode, raw)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var doc ErrorDoc
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Error == nil || doc.Error.Kind != ErrKindOverload {
		t.Fatalf("429 body %s, want kind %q", raw, ErrKindOverload)
	}
}

func TestChaosPanicIsolation(t *testing.T) {
	defer chaosinject.Reset()
	chaosinject.Reset()
	check := leakCheck(t)
	if err := chaosinject.Parse("panic-every=2"); err != nil {
		t.Fatal(err)
	}
	s, ts := testService(t, Options{Workers: 2})

	// Run enough jobs to crash several workers. Every job must reach a
	// terminal state: done, or failed with a typed panic error carrying a
	// stack — never a hung job, never a dead process.
	const jobs = 8
	var done, panicked int
	for i := 0; i < jobs; i++ {
		resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: status %d, body %s", i, resp.StatusCode, raw)
		}
		var doc StatusDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		switch doc.State {
		case StateDone:
			done++
		case StateFailed:
			if doc.Error == nil || doc.Error.Kind != ErrKindPanic {
				t.Fatalf("job %d failed with %+v, want kind %q", i, doc.Error, ErrKindPanic)
			}
			if !strings.Contains(doc.Error.Stack, "goroutine") {
				t.Fatalf("job %d panic error carries no stack", i)
			}
			panicked++
		default:
			t.Fatalf("job %d ended %q", i, doc.State)
		}
	}
	if panicked == 0 || done == 0 {
		t.Fatalf("panic-every=2 over %d jobs: %d done, %d panicked — injection not exercised", jobs, done, panicked)
	}

	// Liveness: the service still answers, and replacement workers still
	// run jobs (disarm chaos so they succeed).
	chaosinject.Reset()
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics: %v %v", hresp, err)
	}
	hresp.Body.Close()
	resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "?wait=1")
	var doc StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil || resp.StatusCode != http.StatusOK || doc.State != StateDone {
		t.Fatalf("job after worker replacement: status %d state %q body %s", resp.StatusCode, doc.State, raw)
	}

	stats := s.Stats()
	if stats.PanicsRecovered != int64(panicked) || stats.WorkersReplaced != int64(panicked) {
		t.Errorf("stats: recovered=%d replaced=%d, want both %d",
			stats.PanicsRecovered, stats.WorkersReplaced, panicked)
	}

	s.Drain(10 * time.Second)
	ts.Close()
	check()
}

func TestChaosSlowChunkDeadline(t *testing.T) {
	defer chaosinject.Reset()
	chaosinject.Reset()
	if err := chaosinject.Parse("slow-chunk=20ms"); err != nil {
		t.Fatal(err)
	}
	_, ts := testService(t, Options{Workers: 1, DrainPolicy: DrainCancel})
	spec := simSpec(busySrc, 40_000_000)
	spec.DeadlineMS = 150
	resp, raw := postJob(t, ts, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var doc StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != StateFailed || doc.Error == nil || doc.Error.Kind != ErrKindDeadline {
		t.Fatalf("slow job under 150ms deadline ended %q (%+v), want failed/deadline", doc.State, doc.Error)
	}
	// The service is fine; the job died, not the server.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after deadline: %v %v", hresp, err)
	}
	hresp.Body.Close()
}

func TestChaosQueueSaturate(t *testing.T) {
	defer chaosinject.Reset()
	chaosinject.Reset()
	if err := chaosinject.Parse("queue-saturate"); err != nil {
		t.Fatal(err)
	}
	_, ts := testService(t, Options{Workers: 1})
	resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429 (body %s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var doc ErrorDoc
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Schema != Schema ||
		doc.Error == nil || doc.Error.Kind != ErrKindOverload {
		t.Fatalf("429 body %s, want well-formed %q error", raw, ErrKindOverload)
	}
}

func TestGracefulDrain(t *testing.T) {
	check := leakCheck(t)
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, body %s", i, resp.StatusCode, raw)
		}
		var doc StatusDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, doc.ID)
	}

	stats := s.Drain(10 * time.Second)

	// Wait policy: everything admitted before the drain ran to done.
	for _, id := range ids {
		_, doc := getStatus(t, ts, id)
		if doc.State != StateDone {
			t.Errorf("job %s ended %q after wait-drain, want done (%+v)", id, doc.State, doc.Error)
		}
	}
	if stats.JobsAccepted != 4 || stats.JobsDone != 4 {
		t.Errorf("drain stats: accepted=%d done=%d, want 4/4", stats.JobsAccepted, stats.JobsDone)
	}

	// Drained: liveness holds, readiness and admission refuse.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while drained: %v %v", hresp, err)
	}
	hresp.Body.Close()
	rresp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil || rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained: %v %v, want 503", rresp, err)
	}
	rresp.Body.Close()
	resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: status %d, want 503 (body %s)", resp.StatusCode, raw)
	}
	var edoc ErrorDoc
	if err := json.Unmarshal(raw, &edoc); err != nil || edoc.Error == nil || edoc.Error.Kind != ErrKindDraining {
		t.Fatalf("drained submit body %s, want kind %q", raw, ErrKindDraining)
	}

	ts.Close()
	check()
}

func TestDrainCancelPolicy(t *testing.T) {
	check := leakCheck(t)
	s := New(Options{Workers: 1, DrainPolicy: DrainCancel})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJob(t, ts, simSpec(busySrc, 40_000_000), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var doc StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick it up, then cancel-drain: the job
	// must abort within about one chunk, not run its 40M fuel out.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	s.Drain(10 * time.Second)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancel-drain took %v", d)
	}
	_, got := getStatus(t, ts, doc.ID)
	if got.State != StateCanceled && got.State != StateDone {
		t.Fatalf("job after cancel-drain: %q (%+v)", got.State, got.Error)
	}
	ts.Close()
	check()
}

func TestClientDisconnectCancelsWaitJob(t *testing.T) {
	_, ts := testService(t, Options{Workers: 1, DrainPolicy: DrainCancel})
	body, err := json.Marshal(simSpec(busySrc, 40_000_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Hang up once the job exists, then verify the job itself got
	// cancelled — the disconnect propagated into the engine.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request succeeded despite the hangup")
	}
	got := waitTerminal(t, ts, "job-000001")
	if got.State != StateCanceled {
		t.Fatalf("job after client disconnect: %q (%+v), want canceled", got.State, got.Error)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testService(t, Options{Workers: 1})
	resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	sresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var doc struct {
		Schema       string `json:"schema"`
		JobsAccepted int64  `json:"jobs_accepted"`
		JobsDone     int64  `json:"jobs_done"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "elag-serve-stats/v3" || doc.JobsAccepted != 1 || doc.JobsDone != 1 {
		t.Fatalf("stats doc %+v", doc)
	}
}

// TestGridJob runs the smallest useful grid through the service to prove
// the heavy path (harness worker pool inside a serve worker) composes.
func TestGridJob(t *testing.T) {
	if testing.Short() {
		t.Skip("grid job is the slow path")
	}
	_, ts := testService(t, Options{Workers: 1, GridParallel: 4,
		Limits: func() Limits { l := DefaultLimits(); l.MaxDeadline = 5 * time.Minute; return l }()})
	spec := &JobSpec{Kind: KindGrid, Fuel: 250_000}
	resp, raw := postJob(t, ts, spec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var doc StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// The full suite under -race is slow; give it real time.
	got := waitTerminalFor(t, ts, doc.ID, 4*time.Minute)
	if got.State != StateDone {
		t.Fatalf("grid job ended %q (%+v)", got.State, got.Error)
	}
	out, err := json.Marshal(got.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte("elag-bench/")) {
		t.Fatalf("grid result carries no bench document: %.200s", out)
	}
}
