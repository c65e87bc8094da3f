package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracing from outside the program. A traced round composes each public
// entry point from the layer calls it is made of (elag.Build is
// mcc.Compile plus passman.Manager.Run; SimulateBatchContext is
// pipeline.NewBatch plus emu.StreamTraceContext feeding
// pipeline.RunChunkBatch) and wraps every call in a span. A span's self
// time is its duration minus what its children and credits cover, so the
// layers' self times plus the unattributed remainder sum exactly to the op
// wall time.

// span is one timed call. Parent is the index of the enclosing span (-1 for
// an op's root); Op numbers the operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`

	covered int64 // ns of the interval covered by children and credits
}

// tracer keeps every span of a run in memory. It is safe for concurrent
// use (serve-mix clients trace their jobs from two goroutines), and a nil
// *tracer records nothing, so untraced rounds pass nil.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	credits map[string]int64     // layer → ns timed by the program itself
	ccalls  map[string]int       // layer → calls behind credits
	totals  map[string]float64   // work counts summed over traced rounds
	rounds  map[string][]float64 // one value per traced round
	ops     int
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		credits: map[string]int64{},
		ccalls:  map[string]int{},
		totals:  map[string]float64{},
		rounds:  map[string][]float64{},
	}
}

// op opens the root span of one operation and returns its index.
func (t *tracer) op() int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: "op", Start: now, Parent: -1, Op: t.ops})
	t.ops++
	return len(t.spans) - 1
}

// begin opens a span for a call into layer name, nested in parent.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: t.spans[parent].Op})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.End = now
	if s.Parent >= 0 {
		t.spans[s.Parent].covered += s.End - s.Start
	}
}

// credit attributes ns of span parent, spent in calls calls, to layer
// without spans of its own: passman times each pass itself, inside the Run
// call the benchmark times.
func (t *tracer) credit(parent int, layer string, ns int64, calls int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[parent].covered += ns
	t.credits[layer] += ns
	t.ccalls[layer] += calls
}

// add sums a work count over every traced round.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.totals[name] += v
}

// set records one traced round's value of a per-round metric; the run
// reports the median over traced rounds.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rounds[name] = append(t.rounds[name], v)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer string  `json:"layer"`
	Calls int     `json:"calls"`
	SelfS float64 `json:"self_s"`
	Pct   float64 `json:"pct"`
}

// layers returns the self time per layer (spans and credits), the call
// count per layer, and the summed wall time of every op.
func (t *tracer) layers() (self map[string]int64, calls map[string]int, opWall int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self, calls = map[string]int64{}, map[string]int{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			opWall += s.End - s.Start
			continue
		}
		self[s.Name] += s.End - s.Start - s.covered
		calls[s.Name]++
	}
	for layer, ns := range t.credits {
		self[layer] += ns
		calls[layer] += t.ccalls[layer]
	}
	return self, calls, opWall
}

// table renders the per-layer table, largest self time first, ending with
// the unattributed remainder.
func (t *tracer) table() []layerRow {
	self, calls, opWall := t.layers()
	var rows []layerRow
	var sum int64
	for layer, ns := range self {
		sum += ns
		rows = append(rows, layerRow{Layer: layer, Calls: calls[layer],
			SelfS: float64(ns) / 1e9, Pct: pct(ns, opWall)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	return append(rows, layerRow{Layer: "bench.unattributed",
		SelfS: float64(opWall-sum) / 1e9, Pct: pct(opWall-sum, opWall)})
}

// perLayer fills every declared per-layer metric. A layer the workload does
// not call reads 0%; overhead is the traced/untraced round-time ratio
// minus one, and rates are per reference-speed second (scale, as for the
// end-to-end times).
func (t *tracer) perLayer(overhead, scale float64) map[string]float64 {
	self, _, opWall := t.layers()
	out := make(map[string]float64, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		out[d.name] = 0
	}
	var sum, replay int64
	for layer, ns := range self {
		sum += ns
		if _, ok := out[layer+"_pct"]; ok {
			out[layer+"_pct"] = pct(ns, opWall)
		}
		if strings.HasPrefix(layer, "pipeline.replay.") {
			replay += ns
		}
	}
	out["bench.unattributed_pct"] = pct(opWall-sum, opWall)
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, vs := range t.rounds {
		out[name] = median(vs)
	}
	out["emu.minst_per_s"] = perSecond(t.totals["emu.entries"], self["emu.stream"]) / scale / 1e6
	out["pipeline.minst_per_s"] = perSecond(t.totals["pipeline.entries"], replay) / scale / 1e6
	if b := t.totals["passman.builds"]; b > 0 {
		out["passman.insts_removed"] = t.totals["passman.insts_removed"] / b
	}
	out["trace.overhead_ratio"] = overhead
	return out
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func perSecond(n float64, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return n / (float64(ns) / 1e9)
}

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// perLayerMetrics are reported by traced runs, as BENCHMARK.json declares
// them (bench_test.go checks it). A "_pct" metric is the layer's self time
// as a share of the traced op wall time.
var perLayerMetrics = []metricDef{
	{"mcc.compile_pct", "%"},
	{"passman.inline_pct", "%"},
	{"passman.constprop_pct", "%"},
	{"passman.cse_pct", "%"},
	{"passman.copyprop_pct", "%"},
	{"passman.coalesce_pct", "%"},
	{"passman.rle_pct", "%"},
	{"passman.dce_pct", "%"},
	{"passman.licm_pct", "%"},
	{"passman.iv_pct", "%"},
	{"passman.matsym_pct", "%"},
	{"passman.lower_pct", "%"},
	{"core.classify_pct", "%"},
	{"passman.run_pct", "%"},
	{"passman.insts_removed", "count"},
	{"emu.stream_pct", "%"},
	{"emu.minst_per_s", "Minst/s"},
	{"pipeline.newbatch_pct", "%"},
	{"pipeline.replay.base_pct", "%"},
	{"pipeline.replay.hw-pred_pct", "%"},
	{"pipeline.replay.hw-early_pct", "%"},
	{"pipeline.replay.hw-dual_pct", "%"},
	{"pipeline.replay.compiler_pct", "%"},
	{"pipeline.minst_per_s", "Minst/s"},
	{"harness.table2_pct", "%"},
	{"harness.table3_pct", "%"},
	{"harness.table4_pct", "%"},
	{"harness.fig5a_pct", "%"},
	{"harness.fig5b_pct", "%"},
	{"harness.fig5c_pct", "%"},
	{"harness.embedded_pct", "%"},
	{"harness.lab_builds", "count"},
	{"harness.lab_hits", "count"},
	{"harness.replay_chunks", "count"},
	{"harness.replay_entries", "count"},
	{"serve.submit_pct", "%"},
	{"serve.wait.compile_pct", "%"},
	{"serve.wait.simulate_pct", "%"},
	{"serve.wait.grid_pct", "%"},
	{"serve.queue_wait_ratio", "ratio"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_coalesced", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"artifact.mem_hits", "count"},
	{"artifact.misses", "count"},
	{"artifact.puts", "count"},
	{"artifact.evictions", "count"},
	{"artifact.mem_bytes", "bytes"},
	{"mech.stride.lookups", "count"},
	{"obs.marshal_pct", "%"},
	{"model.ipc.base", "inst/cycle"},
	{"model.ipc.hw-pred", "inst/cycle"},
	{"model.ipc.hw-early", "inst/cycle"},
	{"model.ipc.hw-dual", "inst/cycle"},
	{"model.ipc.compiler", "inst/cycle"},
	{"model.speedup.hw-pred", "ratio"},
	{"model.speedup.hw-early", "ratio"},
	{"model.speedup.hw-dual", "ratio"},
	{"model.speedup.compiler", "ratio"},
	{"cache.dcache_miss_ratio.base", "ratio"},
	{"bpred.mispredict_ratio.base", "ratio"},
	{"addrpred.predict_ok_ratio.compiler", "ratio"},
	{"earlycalc.early_ok_ratio.compiler", "ratio"},
	{"pipeline.load_latency_mean.compiler", "cycles"},
	{"bench.unattributed_pct", "%"},
	{"trace.overhead_ratio", "ratio"},
}
