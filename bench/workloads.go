package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"elag"
	"elag/internal/artifact"
	"elag/internal/diffcheck"
	"elag/internal/emu"
	"elag/internal/harness"
	"elag/internal/mcc"
	"elag/internal/opt"
	"elag/internal/passman"
	"elag/internal/pipeline"
	"elag/internal/serve"
	"elag/internal/telemetry"
	"elag/internal/workload"
)

// sizes scales the workloads. full is what the benchmark measures; toy is
// the self-test's size.
type sizes struct {
	gridFuel      int64 // grid-all per-benchmark fuel
	simFuel       int64 // sim-all per-program fuel
	serveJobs     int   // serve-mix jobs per round
	serveSimFuel  int64 // serve-mix simulate-job fuel
	serveGridFuel int64 // serve-mix grid-job fuel
	suiteProgs    int   // compile-suite: workloads built per round
	genProgs      int   // compile-suite: GenMC programs built per round
}

var sizesByName = map[string]sizes{
	"full": {gridFuel: 1_000_000, simFuel: 2_000_000, serveJobs: 240, serveSimFuel: 500_000,
		serveGridFuel: 300_000, suiteProgs: 25, genProgs: 25},
	"toy": {gridFuel: 20_000, simFuel: 20_000, serveJobs: 12, serveSimFuel: 20_000,
		serveGridFuel: 20_000, suiteProgs: 2, genProgs: 2},
}

// workloadDef is one named workload. setup makes the seeded inputs and
// builds the system under test; rounds then run on the instance.
type workloadDef struct {
	name  string
	setup func(seed int64, sz sizes) (instance, error)
}

// instance is a workload ready to run. round runs the workload's whole
// input set once, reporting every op to rec; tr is nil on untraced rounds,
// which call the public entry points, and non-nil on traced rounds, which
// compose those entry points from their layers.
type instance interface {
	round(ctx context.Context, rec *recorder, tr *tracer) error
	close()
}

// verifier is implemented by instances whose outputs get a check beyond
// their digests; verify runs once, after the timed rounds.
type verifier interface {
	verify(rec *recorder)
}

var workloads = []workloadDef{
	{"grid-all", newGridAll},
	{"sim-all", newSimAll},
	{"serve-mix", newServeMix},
	{"compile-suite", newCompileSuite},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// recorder collects op latencies and checks every output: against the
// expected digest when one is recorded for its id, and against the first
// answer for the same id in this run. Workloads call tick between ops, so
// the machine's speed is sampled all through a run (calibrate.go).
type recorder struct {
	cal calibrator

	mu        sync.Mutex
	want      map[string]string
	got       map[string]string
	ops       []interval
	attempted int
	failed    int
	failures  []string
}

func newRecorder(want map[string]string) *recorder {
	return &recorder{want: want, got: map[string]string{}}
}

// tick samples the machine's speed (calibrate.go); call it between ops.
func (r *recorder) tick() { r.cal.tick() }

// latency records the wall time of an op that has just ended.
func (r *recorder) latency(d time.Duration) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, interval{end.Add(-d), end})
}

// interval is a span of wall time.
type interval struct{ start, end time.Time }

// scaled returns the intervals' lengths in reference-speed seconds.
func (c *calibrator) scaled(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = iv.end.Sub(iv.start).Seconds() * c.scaleAt(iv.start, iv.end)
	}
	return out
}

// check records one attempted op whose output is out (or which failed
// with err).
func (r *recorder) check(id string, out []byte, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(id, err)
		return
	}
	sum := sha256.Sum256(out)
	digest := hex.EncodeToString(sum[:])
	first, seen := r.got[id]
	if !seen {
		r.got[id] = digest
	}
	want, ok := r.want[id]
	switch {
	case seen && first != digest:
		r.failLocked(id, fmt.Errorf("output digest %.12s differs from this run's first answer %.12s", digest, first))
	case ok && want != digest:
		r.failLocked(id, fmt.Errorf("output digest %.12s, expected %.12s", digest, want))
	}
}

// fail marks an already attempted op's output wrong.
func (r *recorder) fail(id string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(id, err)
}

func (r *recorder) failLocked(id string, err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", id, err))
	}
}

// traceBuild is elag.Build with default options, composed from its layers:
// the front end, then the default pass pipeline under the pass manager.
// passman times every pass itself; those times are credited to the
// passman.Run span.
func traceBuild(tr *tracer, op int, src string) (*elag.Program, error) {
	sp := tr.begin(op, "mcc.compile")
	mod, err := mcc.Compile(src)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st := &passman.State{Source: src, Module: mod}
	stats := &passman.Stats{}
	mgr := passman.Manager{Verify: true, Stats: stats}
	pl := passman.Legacy(opt.Options{}, true)
	sp = tr.begin(op, "passman.run")
	err = mgr.Run(pl, st)
	tr.end(sp)
	removed := 0
	for _, ps := range stats.Passes() {
		layer := "passman." + ps.Name
		if ps.Name == "classify" {
			layer = "core.classify"
		}
		tr.credit(sp, layer, ps.WallNS, ps.Runs)
		if ps.Kind == "ir" {
			removed += ps.Removed
		}
	}
	tr.add("passman.insts_removed", float64(removed))
	tr.add("passman.builds", 1)
	if err != nil {
		return nil, err
	}
	return &elag.Program{Source: src, Asm: st.Asm, Machine: st.Machine, Module: st.Module,
		Classes: st.Classes, Pipeline: pl.Names()}, nil
}

// ---- grid-all ---------------------------------------------------------

// gridAll regenerates the paper's full evaluation document cold, as
// `elag-bench -exp all -json` does, on one worker with no artifact store.
// Its ops are the grid's benchmark columns, timed between the Runner's
// Progress callbacks; its output is the document.
type gridAll struct{ fuel int64 }

func newGridAll(_ int64, sz sizes) (instance, error) { return &gridAll{fuel: sz.gridFuel}, nil }

func (g *gridAll) close() {}

func (g *gridAll) round(ctx context.Context, rec *recorder, tr *tracer) error {
	last := time.Now()
	r := &harness.Runner{Fuel: g.fuel, Parallel: 1,
		// With one worker the grid calls Progress on this goroutine. A
		// traced round does not tick, which would land in its spans.
		Progress: func(string, int, int) {
			rec.latency(time.Since(last))
			if tr == nil {
				rec.tick()
			}
			last = time.Now()
		}}
	var buf bytes.Buffer
	var err error
	if tr == nil {
		var doc *harness.BenchDocument
		if doc, err = r.DocumentExp(ctx, "all"); err == nil {
			err = harness.WriteBenchJSON(&buf, doc)
		}
	} else {
		err = g.traced(ctx, r, tr, &buf)
	}
	rec.check(fmt.Sprintf("document@fuel=%d", g.fuel), buf.Bytes(), err)
	return nil
}

// traced is Runner.Document composed from its seven experiment calls.
func (g *gridAll) traced(ctx context.Context, r *harness.Runner, tr *tracer, buf *bytes.Buffer) error {
	c := &harness.Counters{}
	r.Counters = c
	op := tr.op()
	defer tr.end(op)
	doc := &harness.BenchDocument{Schema: harness.BenchSchema, Fuel: r.Fuel}
	steps := []struct {
		layer string
		run   func() error
	}{
		{"harness.table2", func() (err error) { doc.Table2, err = r.Table2(ctx); return }},
		{"harness.table3", func() (err error) { doc.Table3, err = r.Table3(ctx); return }},
		{"harness.table4", func() (err error) { doc.Table4, err = r.Table4(ctx); return }},
		{"harness.fig5a", func() (err error) { doc.Figure5a, err = r.Figure5a(ctx); return }},
		{"harness.fig5b", func() (err error) { doc.Figure5b, err = r.Figure5b(ctx); return }},
		{"harness.fig5c", func() (err error) { doc.Figure5c, err = r.Figure5c(ctx); return }},
		{"harness.embedded", func() (err error) { doc.Embedded, err = r.Embedded(ctx); return }},
	}
	for _, s := range steps {
		sp := tr.begin(op, s.layer)
		err := s.run()
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.begin(op, "obs.marshal")
	err := harness.WriteBenchJSON(buf, doc)
	tr.end(sp)
	tr.set("harness.lab_builds", float64(c.LabMisses.Load()))
	tr.set("harness.lab_hits", float64(c.LabHits.Load()))
	tr.set("harness.replay_chunks", float64(c.Chunks.Load()))
	tr.set("harness.replay_entries", float64(c.Insts.Load()))
	return err
}

// ---- sim-all ----------------------------------------------------------

// simAllConfigs is `elag-sim -all` with default flags: base, then every
// early-address mode with a 256-entry table.
var simAllConfigs = []serve.ConfigSpec{
	{Name: "base"},
	{Name: "hw-pred", Table: 256},
	{Name: "hw-early", Table: 256},
	{Name: "hw-dual", Table: 256},
	{Name: "compiler", Table: 256},
}

// simAll runs `elag-sim -all workload:NAME` over the whole suite: each op
// builds one program, replays it under the five configurations in one
// batched pass, and marshals the result document elag-sim caches.
type simAll struct {
	fuel  int64
	specs []elag.BatchSpec
}

func newSimAll(_ int64, sz sizes) (instance, error) {
	s := &simAll{fuel: sz.simFuel}
	for _, c := range simAllConfigs {
		cfg, err := c.Config()
		if err != nil {
			return nil, err
		}
		s.specs = append(s.specs, elag.BatchSpec{Config: cfg})
	}
	return s, nil
}

func (s *simAll) close() {}

func (s *simAll) round(ctx context.Context, rec *recorder, tr *tracer) error {
	var runs [][]*elag.Metrics
	for _, w := range workload.All() {
		spec := &serve.JobSpec{Kind: serve.KindSimulate, Workload: w.Name, Configs: simAllConfigs, Fuel: s.fuel}
		t0 := time.Now()
		var data []byte
		var ms []*elag.Metrics
		var err error
		if tr == nil {
			data, err = s.op(ctx, w.Source, spec)
		} else {
			if data, ms, err = s.traced(ctx, tr, w.Source, spec); err == nil {
				runs = append(runs, ms)
			}
		}
		rec.latency(time.Since(t0))
		rec.check(fmt.Sprintf("%s@fuel=%d", w.Name, s.fuel), data, err)
		rec.tick()
	}
	if tr != nil {
		modelStats(tr, runs)
	}
	return nil
}

func (s *simAll) op(ctx context.Context, src string, spec *serve.JobSpec) ([]byte, error) {
	p, err := elag.Build(src, elag.BuildOptions{})
	if err != nil {
		return nil, err
	}
	ms, res, err := p.SimulateBatchContext(ctx, s.specs, s.fuel, 0)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.NewSimulateResult(spec, res.Output(), ms))
}

// traced is op composed from its layers; one RunChunkBatch call per
// configuration per chunk is exactly what the batched call does, since
// RunChunkBatch walks its sims one at a time.
func (s *simAll) traced(ctx context.Context, tr *tracer, src string, spec *serve.JobSpec) ([]byte, []*elag.Metrics, error) {
	op := tr.op()
	defer tr.end(op)
	p, err := traceBuild(tr, op, src)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin(op, "pipeline.newbatch")
	sims, err := pipeline.NewBatch(p.Machine, s.specs)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	stream := tr.begin(op, "emu.stream")
	res, err := emu.StreamTraceContext(ctx, p.Machine, s.fuel, 0, func(chunk *emu.Trace) error {
		for i := range sims {
			sp := tr.begin(stream, "pipeline.replay."+simAllConfigs[i].Label())
			err := pipeline.RunChunkBatch(sims[i:i+1], chunk)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		tr.add("emu.entries", float64(chunk.Len()))
		tr.add("pipeline.entries", float64(chunk.Len()*len(sims)))
		return nil
	})
	tr.end(stream)
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, nil, err
	}
	ms := make([]*elag.Metrics, len(sims))
	for i, sim := range sims {
		ms[i] = sim.Metrics()
	}
	sp = tr.begin(op, "obs.marshal")
	data, err := json.Marshal(serve.NewSimulateResult(spec, res.Output(), ms))
	tr.end(sp)
	return data, ms, err
}

// modelStats reports simulated statistics of one pass over the suite. They
// come from the model, not the host, so a change that only speeds up the
// simulator must leave them bit-identical.
func modelStats(tr *tracer, runs [][]*elag.Metrics) {
	if len(runs) == 0 {
		return
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for i, c := range simAllConfigs {
		var insts, cycles int64
		logSpeedup := 0.0
		for _, ms := range runs {
			insts += ms[i].Insts
			cycles += ms[i].Cycles
			logSpeedup += math.Log(ratio(ms[0].Cycles, ms[i].Cycles))
		}
		tr.set("model.ipc."+c.Label(), ratio(insts, cycles))
		if i > 0 {
			tr.set("model.speedup."+c.Label(), math.Exp(logSpeedup/float64(len(runs))))
		}
	}
	const base, compiler = 0, 4
	var dAcc, dMiss, br, mis, pred, ok, elig, fwd, lat, loads int64
	for _, ms := range runs {
		dAcc += ms[base].DCacheStats.Accesses
		dMiss += ms[base].DCacheStats.Misses
		br += ms[base].Branches
		mis += ms[base].Mispredicts
		pred += ms[compiler].TableStats.Predictions
		ok += ms[compiler].TableStats.Correct
		elig += ms[compiler].Early.Eligible
		fwd += ms[compiler].Early.Forwarded
		lat += ms[compiler].LoadLatencySum
		loads += ms[compiler].Loads
	}
	tr.set("cache.dcache_miss_ratio.base", ratio(dMiss, dAcc))
	tr.set("bpred.mispredict_ratio.base", ratio(mis, br))
	tr.set("addrpred.predict_ok_ratio.compiler", ratio(ok, pred))
	tr.set("earlycalc.early_ok_ratio.compiler", ratio(fwd, elig))
	tr.set("pipeline.load_latency_mean.compiler", ratio(lat, loads))
}

// ---- serve-mix --------------------------------------------------------

// serveConfigs are the configurations simulate jobs draw from.
var serveConfigs = []serve.ConfigSpec{
	{Name: "base"},
	{Name: "compiler"},
	{Name: "hw-dual"},
	{Name: "hw-early"},
	{Name: "base", Mech: "stride:64"},
}

// serveClients is the number of clients. They submit in lockstep: each
// batch submits one job per client at once and waits for all of them, as
// a caller issuing that many concurrent requests would. The service is
// idle between batches, which is where the machine's speed is sampled.
const serveClients = 2

// serveMix drives an in-process elag-serve with one worker and an
// in-memory result store, as `elag-serve` runs by default. Every round
// starts a fresh server, so every round sees the same mix cold.
type serveMix struct {
	jobs  []*serve.JobSpec
	ids   []string
	srv   *serve.Server
	store *artifact.Store
}

func newServeMix(seed int64, sz sizes) (instance, error) {
	m := &serveMix{jobs: serveJobs(seed, sz)}
	for _, spec := range m.jobs {
		if err := spec.Validate(serve.DefaultLimits()); err != nil {
			return nil, err
		}
		data, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		m.ids = append(m.ids, "spec:"+hex.EncodeToString(sum[:]))
	}
	return m, m.start()
}

// serveJobs makes the seeded job mix: 85% simulate, 10% compile and 5%
// grid jobs, about 30% of them repeating an earlier spec. The mix's shape
// is fixed so that every seed asks for the same amount of cold work: fresh
// simulate specs go round-robin over the suite with 1–4 configurations in
// turn, and the grid jobs are table2 and fig5b. The seed picks the
// configurations, the compile sources, which specs repeat and the order.
func serveJobs(seed int64, sz sizes) []*serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	suite := workload.All()
	nGrid := max(2, sz.serveJobs*5/100)
	nCompile := max(1, sz.serveJobs*10/100)
	nSim := sz.serveJobs - nGrid - nCompile
	fresh := func(n int) int { return (n*7 + 9) / 10 } // 70%, rounded up

	var jobs []*serve.JobSpec
	// repeat appends copies of random specs among from until kind has n jobs.
	repeat := func(from []*serve.JobSpec, n int) {
		for i := len(from); i < n; i++ {
			jobs = append(jobs, from[rng.Intn(len(from))])
		}
	}
	grids := []*serve.JobSpec{
		{Kind: serve.KindGrid, Exp: "table2", Fuel: sz.serveGridFuel},
		{Kind: serve.KindGrid, Exp: "fig5b", Fuel: sz.serveGridFuel},
	}
	jobs = append(jobs, grids...)
	repeat(grids, nGrid)

	var compiles []*serve.JobSpec
	for i := 0; i < fresh(nCompile); i++ {
		src := suite[rng.Intn(len(suite))].Source
		if i%2 == 1 {
			src = diffcheck.GenMC(rng.Int63())
		}
		compiles = append(compiles, &serve.JobSpec{Kind: serve.KindCompile, Source: src})
	}
	jobs = append(jobs, compiles...)
	repeat(compiles, nCompile)

	var sims []*serve.JobSpec
	for i := 0; i < fresh(nSim); i++ {
		spec := &serve.JobSpec{Kind: serve.KindSimulate, Workload: suite[i%len(suite)].Name, Fuel: sz.serveSimFuel}
		for _, c := range rng.Perm(len(serveConfigs))[:1+(i/len(suite))%4] {
			spec.Configs = append(spec.Configs, serveConfigs[c])
		}
		sims = append(sims, spec)
	}
	jobs = append(jobs, sims...)
	repeat(sims, nSim)

	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

func (m *serveMix) start() error {
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		return err
	}
	m.store = store
	m.srv = serve.New(serve.Options{Workers: 1, Cache: store})
	return nil
}

func (m *serveMix) close() {
	if m.srv != nil {
		m.srv.Drain(time.Minute)
		m.srv = nil
	}
}

func (m *serveMix) round(ctx context.Context, rec *recorder, tr *tracer) error {
	if m.srv == nil {
		if err := m.start(); err != nil {
			return err
		}
	}
	for i := 0; i < len(m.jobs); i += serveClients {
		var wg sync.WaitGroup
		for j := i; j < min(i+serveClients, len(m.jobs)); j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				m.do(j, rec, tr)
			}(j)
		}
		wg.Wait()
		rec.tick()
	}
	srv := m.srv
	m.close() // settles every counter before they are read
	if tr != nil {
		return m.report(tr, srv)
	}
	return nil
}

// do submits job i and waits for it, as a client of POST /v1/jobs?wait=1.
func (m *serveMix) do(i int, rec *recorder, tr *tracer) {
	spec, id := m.jobs[i], m.ids[i]
	t0 := time.Now()
	op := tr.op()
	sp := tr.begin(op, "serve.submit")
	j, jerr := m.srv.Submit(spec)
	tr.end(sp)
	if jerr != nil {
		tr.end(op)
		rec.check(id, nil, jerr)
		return
	}
	sp = tr.begin(op, "serve.wait."+spec.Kind)
	<-j.Done()
	tr.end(sp)
	tr.end(op)
	rec.latency(time.Since(t0))
	st := j.Status()
	if st.State != serve.StateDone {
		rec.check(id, nil, fmt.Errorf("job %s ended %s: %v", st.ID, st.State, st.Error))
		return
	}
	data, err := json.Marshal(st.Result)
	rec.check(id, data, err)
}

// report reads the drained server's counters for one traced round.
func (m *serveMix) report(tr *tracer, srv *serve.Server) error {
	doc := srv.Stats()
	tr.set("serve.cache_hits", float64(doc.CacheHits))
	tr.set("serve.cache_misses", float64(doc.CacheMisses))
	tr.set("serve.cache_coalesced", float64(doc.CacheCoalesced))
	if doc.JobsAccepted > 0 {
		tr.set("serve.cache_hit_ratio", float64(doc.CacheHits)/float64(doc.JobsAccepted))
	}
	tr.set("serve.rejected", float64(doc.RejectedInvalid+doc.RejectedQueueFull+doc.RejectedDraining))
	st := m.store.Stats()
	tr.set("artifact.mem_hits", float64(st.MemHits))
	tr.set("artifact.misses", float64(st.Misses))
	tr.set("artifact.puts", float64(st.Puts))
	tr.set("artifact.evictions", float64(st.MemEvictions+st.DiskEvictions))
	tr.set("artifact.mem_bytes", float64(st.MemBytes))

	var buf bytes.Buffer
	if err := srv.Metrics().Write(&buf); err != nil {
		return err
	}
	prom, err := telemetry.ParseProm(&buf)
	if err != nil {
		return err
	}
	tr.set("mech.stride.lookups", prom[`elag_mech_lookups_total{kind="stride"}`])
	var wall float64
	for _, kind := range []string{serve.KindCompile, serve.KindSimulate, serve.KindGrid} {
		wall += prom[`elag_job_wall_seconds_sum{kind="`+kind+`"}`]
	}
	if wall > 0 {
		tr.set("serve.queue_wait_ratio", prom["elag_job_queue_wait_seconds_sum"]/wall)
	}
	return nil
}

// ---- compile-suite ----------------------------------------------------

// compileSuite builds every workload plus seeded GenMC programs with
// elag.Build's default (O2) pipeline; its output is Program.Object().
type compileSuite struct {
	progs []source
}

type source struct {
	id, src string
	gen     bool // a GenMC program: held out, changes with the seed
}

func newCompileSuite(seed int64, sz sizes) (instance, error) {
	c := &compileSuite{}
	for _, w := range workload.All()[:sz.suiteProgs] {
		c.progs = append(c.progs, source{id: "workload:" + w.Name, src: w.Source})
	}
	for i := 0; i < sz.genProgs; i++ {
		n := seed + int64(i)
		c.progs = append(c.progs, source{id: fmt.Sprintf("genmc:%d", n), src: diffcheck.GenMC(n), gen: true})
	}
	return c, nil
}

func (c *compileSuite) close() {}

func (c *compileSuite) round(_ context.Context, rec *recorder, tr *tracer) error {
	for _, pr := range c.progs {
		t0 := time.Now()
		var p *elag.Program
		var err error
		if tr == nil {
			p, err = elag.Build(pr.src, elag.BuildOptions{})
		} else {
			op := tr.op()
			p, err = traceBuild(tr, op, pr.src)
			tr.end(op)
		}
		rec.latency(time.Since(t0))
		var obj []byte
		if err == nil {
			obj, err = p.Object()
		}
		rec.check(pr.id, obj, err)
		rec.tick()
	}
	return nil
}

// verify checks the held-out programs' semantics, which no recorded digest
// covers: built at O0, O1 and O2 they must run identically
// (diffcheck.CheckOptLevels, with O0 as the reference).
func (c *compileSuite) verify(rec *recorder) {
	for _, pr := range c.progs {
		if !pr.gen {
			continue
		}
		rep, err := diffcheck.CheckOptLevels(pr.src, 0)
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			rec.fail(pr.id, err)
		}
	}
}
