package elag_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"elag"
	"elag/internal/workload"
)

// attribFuel keeps the per-workload runs fast while still executing every
// benchmark's hot loops.
const attribFuel = 300_000

// observe simulates p under one observed batch spec and returns its metrics.
func observe(t *testing.T, p *elag.Program, spec elag.BatchSpec, fuel int64, chunk int) (*elag.Metrics, elag.RunResult) {
	t.Helper()
	ms, res, err := p.SimulateBatchContext(context.Background(), []elag.BatchSpec{spec}, fuel, chunk)
	if err != nil {
		t.Fatalf("chunk=%d: simulate: %v", chunk, err)
	}
	return ms[0], res
}

func sumPath(rows []elag.LoadPCStats, early bool) elag.PathStats {
	var sum elag.PathStats
	sv := reflect.ValueOf(&sum).Elem()
	for i := range rows {
		ps := rows[i].Predict
		if early {
			ps = rows[i].Early
		}
		pv := reflect.ValueOf(ps)
		for f := 0; f < pv.NumField(); f++ {
			sv.Field(f).SetInt(sv.Field(f).Int() + pv.Field(f).Int())
		}
	}
	return sum
}

// TestPerPCAttributionSumsOnWorkloads asserts the counter algebra on every
// workload: the per-PC table of a PerPC batch spec must sum exactly
// to the global Predict/Early counters, load count and latency sum.
func TestPerPCAttributionSumsOnWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p, err := elag.Build(w.Source, elag.BuildOptions{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			m, _ := observe(t, p, elag.BatchSpec{Config: elag.CompilerDirectedConfig(), PerPC: true},
				attribFuel, 0)
			if got := sumPath(m.PerPC, false); got != m.Predict {
				t.Errorf("predict sum %+v != global %+v", got, m.Predict)
			}
			if got := sumPath(m.PerPC, true); got != m.Early {
				t.Errorf("early sum %+v != global %+v", got, m.Early)
			}
			var count, latSum int64
			for i := range m.PerPC {
				count += m.PerPC[i].Count
				latSum += m.PerPC[i].LatencySum
			}
			if count != m.Loads || latSum != m.LoadLatencySum {
				t.Errorf("per-PC count/latency %d/%d != global %d/%d",
					count, latSum, m.Loads, m.LoadLatencySum)
			}
		})
	}
}

// TestObservedExporters smoke-tests the facade exporters end to end on one
// workload: the trace is valid JSON with the expected preamble, the
// metrics document round-trips with its schema tag, and the per-PC CSV
// has one line per attribution row.
func TestObservedExporters(t *testing.T) {
	p, err := elag.Build(workload.Get("023.eqntott").Source, elag.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rec := &elag.TraceRecorder{Limit: 10_000}
	m, _ := observe(t, p, elag.BatchSpec{Config: elag.CompilerDirectedConfig(), Sink: rec, PerPC: true},
		attribFuel, 0)
	if rec.Total == 0 || len(rec.Events) == 0 {
		t.Fatalf("no events recorded (total %d)", rec.Total)
	}

	var trace bytes.Buffer
	if err := p.WriteChromeTrace(&trace, rec.Events); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) <= len(rec.Events) {
		t.Errorf("trace has %d events for %d recorded (+metadata expected)",
			len(parsed.TraceEvents), len(rec.Events))
	}

	var mj bytes.Buffer
	if err := elag.WriteMetricsJSON(&mj, elag.NewMetricsDoc("023.eqntott", "compiler", m)); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(mj.Bytes(), &doc); err != nil {
		t.Fatalf("metrics doc is not valid JSON: %v", err)
	}
	if doc["schema"] != "elag-metrics/v1" {
		t.Errorf("schema = %v", doc["schema"])
	}

	var csvBuf bytes.Buffer
	if err := elag.WritePerPCCSV(&csvBuf, m.PerPC); err != nil {
		t.Fatalf("per-pc csv: %v", err)
	}
	lines := strings.Count(strings.TrimRight(csvBuf.String(), "\n"), "\n") + 1
	if lines != len(m.PerPC)+1 {
		t.Errorf("csv has %d lines, want %d rows + header", lines, len(m.PerPC))
	}

	var report bytes.Buffer
	if err := elag.WriteWorstLoads(&report, m, 5); err != nil {
		t.Fatalf("worst loads: %v", err)
	}
	if !strings.Contains(report.String(), "instruction") {
		t.Errorf("worst-loads report missing header:\n%s", report.String())
	}
}

// TestMetricsSummary checks the human-readable table mentions the headline
// numbers it claims to summarize.
func TestMetricsSummary(t *testing.T) {
	p, err := elag.Build(workload.Get("023.eqntott").Source, elag.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m, _, err := p.Simulate(elag.CompilerDirectedConfig(), attribFuel)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	s := m.Summary()
	for _, want := range []string{"cycles", "IPC", "avg load latency",
		"predict", "early", "cache-miss", "mem-interlock"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
