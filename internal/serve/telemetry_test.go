package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"elag/internal/chaosinject"
	"elag/internal/telemetry"
)

// scrapeMetrics pulls /metrics and parses the exposition into a flat
// series → value map, exactly as a Prometheus scraper would read it.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	m, err := telemetry.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return m
}

// TestMetricsEndpointSeriesPresent asserts the declared series set: every
// metric the dashboards and alerts depend on exists from the first scrape
// (cardinality is fixed at registration, not discovered on first event).
func TestMetricsEndpointSeriesPresent(t *testing.T) {
	_, ts := testService(t, Options{Workers: 2, QueueDepth: 7})
	m := scrapeMetrics(t, ts)
	required := []string{
		"elag_uptime_seconds",
		"elag_queue_depth",
		"elag_queue_capacity",
		"elag_workers",
		"elag_workers_busy",
		"elag_jobs_in_flight",
		"elag_jobs_admitted_total",
		`elag_jobs_rejected_total{reason="invalid"}`,
		`elag_jobs_rejected_total{reason="queue_full"}`,
		`elag_jobs_rejected_total{reason="draining"}`,
		`elag_jobs_completed_total{kind="simulate",outcome="done"}`,
		`elag_jobs_completed_total{kind="grid",outcome="failed"}`,
		`elag_jobs_completed_total{kind="compile",outcome="canceled"}`,
		`elag_job_wall_seconds_count{kind="simulate"}`,
		`elag_job_wall_seconds_sum{kind="simulate"}`,
		"elag_job_queue_wait_seconds_count",
		"elag_panics_recovered_total",
		"elag_workers_replaced_total",
		"elag_lab_cache_hits_total",
		"elag_lab_cache_misses_total",
		"elag_chunks_total",
		"elag_insts_total",
		"elag_chaos_armed",
		"elag_process_cpu_seconds_total",
		// One series per registered mechanism kind, pre-declared at
		// startup like everything else in this list.
		`elag_mech_lookups_total{kind="stride"}`,
		`elag_mech_hits_total{kind="stride"}`,
		`elag_mech_misses_total{kind="stride"}`,
		`elag_mech_trains_total{kind="stride"}`,
		`elag_mech_allocs_total{kind="stride"}`,
		`elag_mech_lookups_total{kind="pcax"}`,
		`elag_mech_lookups_total{kind="addrpred"}`,
		`elag_mech_lookups_total{kind="earlycalc"}`,
	}
	for _, k := range required {
		if _, ok := m[k]; !ok {
			t.Errorf("series %s missing from first scrape", k)
		}
	}
	if m["elag_queue_capacity"] != 7 || m["elag_workers"] != 2 {
		t.Errorf("shape gauges: capacity=%v workers=%v, want 7/2",
			m["elag_queue_capacity"], m["elag_workers"])
	}
	if m["elag_uptime_seconds"] < 0 {
		t.Errorf("uptime %v < 0", m["elag_uptime_seconds"])
	}
}

// completedTotal sums elag_jobs_completed_total over outcomes for one kind
// ("" = all kinds).
func completedTotal(m map[string]float64, kind string) float64 {
	var s float64
	for k, v := range m {
		if !strings.HasPrefix(k, `elag_jobs_completed_total{`) {
			continue
		}
		if kind == "" || strings.Contains(k, `kind="`+kind+`"`) {
			s += v
		}
	}
	return s
}

// TestMetricsCounterExactness drives the service through every admission
// and outcome path — successes, injected panics, queue-saturate rejects, a
// cancel — and asserts the counter algebra EXACTLY against a /metrics
// scrape: admitted = completed + in-flight, per-kind histogram counts match
// the outcome counters, panics match replaced workers. Telemetry that is
// merely "approximately right" under faults is worse than none.
func TestMetricsCounterExactness(t *testing.T) {
	defer chaosinject.Reset()
	chaosinject.Reset()
	if err := chaosinject.Parse("panic-every=2"); err != nil {
		t.Fatal(err)
	}
	_, ts := testService(t, Options{Workers: 2})

	const jobs = 6
	var wantDone, wantFailed float64
	for i := 0; i < jobs; i++ {
		resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: status %d, body %s", i, resp.StatusCode, raw)
		}
		var doc StatusDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		switch doc.State {
		case StateDone:
			wantDone++
		case StateFailed:
			wantFailed++
		default:
			t.Fatalf("job %d ended %q", i, doc.State)
		}
	}

	// Saturated-queue rejections must count without perturbing admission.
	chaosinject.Reset()
	if err := chaosinject.Parse("queue-saturate"); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJob(t, ts, simSpec(quickSrc, 300_000), ""); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d, want 429", resp.StatusCode)
	}
	chaosinject.Reset()

	// One canceled job: cancel immediately after async submit, then wait
	// for its terminal state so in-flight settles to zero.
	resp, raw := postJob(t, ts, simSpec(busySrc, 40_000_000), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("busy submit: %d %s", resp.StatusCode, raw)
	}
	var busy StatusDoc
	if err := json.Unmarshal(raw, &busy); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+busy.ID, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if got := waitTerminal(t, ts, busy.ID); got.State != StateCanceled {
		t.Fatalf("canceled job ended %q", got.State)
	}

	// Mechanism-bearing jobs, two under the panic fault and one clean: the
	// per-kind elag_mech_* aggregates fold only from finished Sims, so a
	// panicked job must leave them self-consistent — the Stats algebra
	// below has to survive chaos, never a half-updated row. Distinct fuels
	// keep the three jobs from sharing a single-flight entry.
	if err := chaosinject.Parse("panic-every=2"); err != nil {
		t.Fatal(err)
	}
	for i, fuel := range []int64{200_000, 150_000, 100_000} {
		if i == 2 {
			chaosinject.Reset() // the last job always completes
		}
		resp, raw := postJob(t, ts, &JobSpec{
			Kind:     KindSimulate,
			Workload: "023.eqntott",
			Configs:  []ConfigSpec{{Name: "base"}, {Name: "base", Mech: "stride:64"}},
			Fuel:     fuel,
		}, "?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mech job %d: status %d, body %s", i, resp.StatusCode, raw)
		}
		var doc StatusDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		switch doc.State {
		case StateDone:
			wantDone++
		case StateFailed:
			wantFailed++
		default:
			t.Fatalf("mech job %d ended %q", i, doc.State)
		}
	}
	chaosinject.Reset()

	m := scrapeMetrics(t, ts)

	// The algebra: every admitted job is terminal now, so admitted must
	// equal the completed total and in-flight must be zero.
	admitted := m["elag_jobs_admitted_total"]
	if admitted != jobs+4 {
		t.Errorf("admitted = %v, want %d", admitted, jobs+4)
	}
	if got := completedTotal(m, ""); got != admitted {
		t.Errorf("completed total %v != admitted %v", got, admitted)
	}
	if inflight := m["elag_jobs_in_flight"]; inflight != 0 {
		t.Errorf("in-flight = %v after all jobs terminal", inflight)
	}
	if got := m[`elag_jobs_completed_total{kind="simulate",outcome="done"}`]; got != wantDone {
		t.Errorf(`completed{simulate,done} = %v, want %v`, got, wantDone)
	}
	if got := m[`elag_jobs_completed_total{kind="simulate",outcome="failed"}`]; got != wantFailed {
		t.Errorf(`completed{simulate,failed} = %v, want %v`, got, wantFailed)
	}
	if got := m[`elag_jobs_completed_total{kind="simulate",outcome="canceled"}`]; got != 1 {
		t.Errorf(`completed{simulate,canceled} = %v, want 1`, got)
	}
	if got := m[`elag_jobs_rejected_total{reason="queue_full"}`]; got != 1 {
		t.Errorf(`rejected{queue_full} = %v, want 1`, got)
	}

	// Histogram exactness: the wall histogram observes every terminal job,
	// so its count per kind equals the outcome counters' sum.
	if hc := m[`elag_job_wall_seconds_count{kind="simulate"}`]; hc != completedTotal(m, "simulate") {
		t.Errorf("wall histogram count %v != simulate completed %v", hc, completedTotal(m, "simulate"))
	}
	// queue-wait observes only jobs that actually started: the
	// canceled-while-queued path may skip it, so it is bounded by admitted.
	if qc := m["elag_job_queue_wait_seconds_count"]; qc > admitted {
		t.Errorf("queue-wait count %v > admitted %v", qc, admitted)
	}
	if m["elag_panics_recovered_total"] != wantFailed || m["elag_workers_replaced_total"] != wantFailed {
		t.Errorf("panics=%v replaced=%v, want both %v",
			m["elag_panics_recovered_total"], m["elag_workers_replaced_total"], wantFailed)
	}
	if m["elag_insts_total"] <= 0 || m["elag_chunks_total"] <= 0 {
		t.Errorf("work volume not counted: insts=%v chunks=%v",
			m["elag_insts_total"], m["elag_chunks_total"])
	}
	// Mechanism counter algebra, per registered kind: lookups must equal
	// hits + misses and allocs never exceed trains on the SCRAPED values —
	// the same self-consistency mech.Stats guarantees per Sim. It holds
	// whenever no fold is in flight, as here, where every job is terminal;
	// chaos cannot break it (a panicked sim contributes nothing, not a
	// partial row). The stride jobs above ran to completion at least once,
	// so that kind must show traffic; the paper kinds (addrpred,
	// earlycalc), built as the paper structures, read zero by design.
	for _, kind := range []string{"addrpred", "earlycalc", "pcax", "stride"} {
		lk := m[`elag_mech_lookups_total{kind="`+kind+`"}`]
		mh := m[`elag_mech_hits_total{kind="`+kind+`"}`]
		mm := m[`elag_mech_misses_total{kind="`+kind+`"}`]
		tr := m[`elag_mech_trains_total{kind="`+kind+`"}`]
		al := m[`elag_mech_allocs_total{kind="`+kind+`"}`]
		if mh+mm != lk {
			t.Errorf("mech %s algebra broken: hits %v + misses %v != lookups %v", kind, mh, mm, lk)
		}
		if al > tr {
			t.Errorf("mech %s: allocs %v > trains %v", kind, al, tr)
		}
	}
	if lk := m[`elag_mech_lookups_total{kind="stride"}`]; lk <= 0 {
		t.Errorf("stride lookups = %v after completed stride jobs, want > 0", lk)
	}
	if tr := m[`elag_mech_trains_total{kind="stride"}`]; tr <= 0 {
		t.Errorf("stride trains = %v after completed stride jobs, want > 0", tr)
	}
	if lk := m[`elag_mech_lookups_total{kind="pcax"}`]; lk != 0 {
		t.Errorf("pcax lookups = %v with no pcax jobs, want 0", lk)
	}

	// /v1/stats is a projection of the same counters; the two surfaces may
	// never disagree.
	sresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		JobsAccepted int64 `json:"jobs_accepted"`
		JobsDone     int64 `json:"jobs_done"`
		JobsFailed   int64 `json:"jobs_failed"`
		JobsCanceled int64 `json:"jobs_canceled"`
		JobsInFlight int64 `json:"jobs_in_flight"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if float64(stats.JobsAccepted) != admitted ||
		float64(stats.JobsDone) != wantDone ||
		float64(stats.JobsFailed) != wantFailed ||
		stats.JobsCanceled != 1 || stats.JobsInFlight != 0 {
		t.Errorf("/v1/stats %+v disagrees with /metrics (admitted %v done %v failed %v)",
			stats, admitted, wantDone, wantFailed)
	}
}

// streamEvents opens the NDJSON stream and decodes every frame until the
// server closes it.
func streamEvents(t *testing.T, ts *httptest.Server, id, query string) []telemetry.Frame {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var frames []telemetry.Frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f telemetry.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestEventsStreamSimulate subscribes to a queued simulate job and checks
// the full frame protocol: a state frame when the worker picks it up, chunk
// frames with monotonically increasing sequence numbers and instruction
// counts, and the "done" terminator as the last line.
func TestEventsStreamSimulate(t *testing.T) {
	_, ts := testService(t, Options{Workers: 1, DrainPolicy: DrainCancel})

	// Occupy the single worker so the observed job sits queued while we
	// subscribe — no frame can escape before the subscription exists.
	resp, raw := postJob(t, ts, simSpec(busySrc, 40_000_000), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier: %d %s", resp.StatusCode, raw)
	}
	var occupier StatusDoc
	if err := json.Unmarshal(raw, &occupier); err != nil {
		t.Fatal(err)
	}

	spec := simSpec(busySrc, 2_000_000) // ~500 chunks at the default 4096
	resp, raw = postJob(t, ts, spec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observed job: %d %s", resp.StatusCode, raw)
	}
	var watched StatusDoc
	if err := json.Unmarshal(raw, &watched); err != nil {
		t.Fatal(err)
	}

	framesc := make(chan []telemetry.Frame, 1)
	go func() { framesc <- streamEvents(t, ts, watched.ID, "") }()

	// Subscription races the cancel below only through the HTTP round
	// trip; give it a beat, then free the worker.
	time.Sleep(50 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+occupier.ID, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	frames := <-framesc
	if len(frames) < 3 {
		t.Fatalf("got %d frames, want at least state+chunk+done: %+v", len(frames), frames)
	}
	if f := frames[0]; f.Type != "state" || f.State != StateRunning || f.Job != watched.ID {
		t.Fatalf("first frame %+v, want state/running", f)
	}
	last := frames[len(frames)-1]
	if last.Type != "done" || last.State != StateDone {
		t.Fatalf("terminator %+v, want done/done", last)
	}
	var chunks int
	var prevSeq, prevInsts int64
	for _, f := range frames[:len(frames)-1] {
		if f.Seq <= prevSeq {
			t.Fatalf("sequence not increasing: %d after %d (%+v)", f.Seq, prevSeq, f)
		}
		prevSeq = f.Seq
		if f.Type != "chunk" {
			continue
		}
		chunks++
		if f.Insts < prevInsts {
			t.Fatalf("chunk insts went backwards: %d after %d", f.Insts, prevInsts)
		}
		prevInsts = f.Insts
		if f.Fuel != spec.Fuel {
			t.Errorf("chunk frame fuel = %d, want %d", f.Fuel, spec.Fuel)
		}
	}
	if chunks == 0 {
		t.Fatal("no chunk frames observed")
	}
	if prevInsts == 0 {
		t.Fatal("chunk frames never reported progress")
	}
}

// TestEventsStreamGridTerminator runs a tiny grid job and checks the
// stream carries per-benchmark completion frames and ends with the
// terminator — the contract a sweep dashboard depends on.
func TestEventsStreamGridTerminator(t *testing.T) {
	if testing.Short() {
		t.Skip("grid job is the slow path")
	}
	_, ts := testService(t, Options{Workers: 1, GridParallel: 4,
		Limits: func() Limits { l := DefaultLimits(); l.MaxDeadline = 5 * time.Minute; return l }()})

	resp, raw := postJob(t, ts, &JobSpec{Kind: KindGrid, Fuel: 100_000}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var doc StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	frames := streamEvents(t, ts, doc.ID, "")
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	last := frames[len(frames)-1]
	if last.Type != "done" || last.State != StateDone {
		t.Fatalf("terminator %+v, want done/done (job error: %s)", last, last.Error)
	}
	var bench int
	for _, f := range frames {
		if f.Type != "bench" {
			continue
		}
		bench++
		if f.Bench == "" || f.Done < 1 || f.Done > f.Total {
			t.Fatalf("malformed bench frame %+v", f)
		}
	}
	if bench == 0 {
		t.Fatalf("no bench frames in %d frames", len(frames))
	}
}

// TestEventsHeartbeat checks that a silent (queued) job still produces
// heartbeat frames at the requested cadence, and that disconnecting the
// events stream does NOT cancel the job — watchers are observers.
func TestEventsHeartbeat(t *testing.T) {
	_, ts := testService(t, Options{Workers: 1, DrainPolicy: DrainCancel})
	resp, raw := postJob(t, ts, simSpec(busySrc, 40_000_000), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier: %d %s", resp.StatusCode, raw)
	}
	var occupier StatusDoc
	if err := json.Unmarshal(raw, &occupier); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJob(t, ts, simSpec(quickSrc, 300_000), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: %d %s", resp.StatusCode, raw)
	}
	var queued StatusDoc
	if err := json.Unmarshal(raw, &queued); err != nil {
		t.Fatal(err)
	}

	// Read a few heartbeats off the queued job's stream, then hang up.
	sresp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + queued.ID + "/events?wait=1&heartbeat=10ms")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(sresp.Body)
	beats := 0
	for sc.Scan() && beats < 3 {
		var f telemetry.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if f.Type == "heartbeat" {
			beats++
		}
	}
	sresp.Body.Close()
	if beats < 3 {
		t.Fatalf("got %d heartbeats before stream ended", beats)
	}

	// The hangup must not have cancelled the job (it may already have run
	// to done if the occupier finished while we read heartbeats).
	if _, doc := getStatus(t, ts, queued.ID); doc.State == StateCanceled {
		t.Fatalf("job canceled by events disconnect: %+v", doc.Error)
	}

	// Unblock the worker and let the watched job run to done: observer
	// disconnect really was side-effect-free.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+occupier.ID, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if got := waitTerminal(t, ts, queued.ID); got.State != StateDone {
		t.Fatalf("watched job ended %q (%+v), want done", got.State, got.Error)
	}

	// Bad heartbeat values are a 400, not a hung stream.
	bresp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + queued.ID + "/events?heartbeat=banana")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad heartbeat: status %d, want 400", bresp.StatusCode)
	}
}

// TestEventsLateSubscriber: a stream opened after the job finished gets
// exactly the terminator — late watchers learn the outcome, never hang.
func TestEventsLateSubscriber(t *testing.T) {
	_, ts := testService(t, Options{Workers: 1})
	resp, raw := postJob(t, ts, simSpec(quickSrc, 300_000), "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var doc StatusDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	frames := streamEvents(t, ts, doc.ID, "")
	if len(frames) != 1 || frames[0].Type != "done" || frames[0].State != StateDone {
		t.Fatalf("late subscriber frames %+v, want exactly one done terminator", frames)
	}

	// Unknown job IDs are typed 404s on the events route too.
	eresp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: %d, want 404", eresp.StatusCode)
	}
}
