package obs_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"elag"
	"elag/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// record simulates p under the compiler-directed configuration with sink
// attached.
func record(p *elag.Program, sink elag.EventSink) error {
	_, _, err := p.SimulateBatchContext(context.Background(),
		[]elag.BatchSpec{{Config: elag.CompilerDirectedConfig(), Sink: sink}}, 0, 0)
	return err
}

// goldenProg is a small fixed program exercising both speculation paths, a
// store and a loop branch. Flavours are hand-written (classification off)
// so the trace is pinned to the source, not the heuristics.
const goldenProg = `
	main:	li r9, 0
		li r20, 65536
		li r21, 139264
	loop:	ld8_p r1, r20(0)
		add r20, r20, 8
		ld8_e r2, r21(0)
		st8 r2, r21(8)
		add r9, r9, 1
		blt r9, 8, loop
		halt r0
`

// TestChromeTraceGolden pins the Chrome trace exporter's output byte for
// byte: event ordering, lane assignment and field encoding are part of the
// format contract (downstream Perfetto configs key on them). Regenerate
// with: go test ./internal/obs/ -run Golden -update
func TestChromeTraceGolden(t *testing.T) {
	p, err := elag.BuildAsm(goldenProg, false, elag.ClassifyOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rec := &elag.TraceRecorder{}
	if err := record(p, rec); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if len(rec.Events) == 0 {
		t.Fatal("no events recorded")
	}
	var got bytes.Buffer
	if err := p.WriteChromeTrace(&got, rec.Events); err != nil {
		t.Fatalf("write trace: %v", err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trace differs from golden %s (regenerate with -update if the change is intended)\ngot %d bytes, want %d",
			golden, got.Len(), len(want))
	}
}

// TestRecorderWindow checks the cycle-window and limit semantics of the
// recorder.
func TestRecorderWindow(t *testing.T) {
	p, err := elag.BuildAsm(goldenProg, false, elag.ClassifyOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	all := &elag.TraceRecorder{}
	if err := record(p, all); err != nil {
		t.Fatal(err)
	}
	last := all.Events[len(all.Events)-1].Cycle

	windowed := &elag.TraceRecorder{FromCycle: 10, ToCycle: last - 5}
	if err := record(p, windowed); err != nil {
		t.Fatal(err)
	}
	if windowed.Total != all.Total {
		t.Errorf("window changed Total: %d != %d", windowed.Total, all.Total)
	}
	if len(windowed.Events) >= len(all.Events) || len(windowed.Events) == 0 {
		t.Errorf("window kept %d of %d events", len(windowed.Events), len(all.Events))
	}
	for _, ev := range windowed.Events {
		if ev.Cycle < 10 || ev.Cycle > last-5 {
			t.Fatalf("event cycle %d outside window [10, %d]", ev.Cycle, last-5)
		}
	}

	capped := &elag.TraceRecorder{Limit: 5}
	if err := record(p, capped); err != nil {
		t.Fatal(err)
	}
	if len(capped.Events) != 5 {
		t.Errorf("limit kept %d events, want 5", len(capped.Events))
	}
	if capped.Dropped != all.Total-5 {
		t.Errorf("dropped %d, want %d", capped.Dropped, all.Total-5)
	}
}

// TestBenchSchemaTag pins the bench document schema version string; bump
// deliberately when the shape changes.
func TestBenchSchemaTag(t *testing.T) {
	if obs.MetricsSchema != "elag-metrics/v1" {
		t.Errorf("metrics schema = %q", obs.MetricsSchema)
	}
}
