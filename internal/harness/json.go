package harness

import (
	"context"
	"encoding/json"
	"io"
)

// BenchSchema versions the elag-bench JSON document; bump on any
// field-shape change so readers of stored documents can dispatch per
// version.
const BenchSchema = "elag-bench/v1"

// BenchDocument is every experiment artifact of the paper's evaluation as
// one machine-readable document (elag-bench -json): Tables 2-4, Figures
// 5a-5c and the embedded-core extension, plus the run parameters that
// scale them.
type BenchDocument struct {
	Schema string `json:"schema"`
	// Fuel is the per-benchmark dynamic instruction budget the artifacts
	// were produced under (0 = the emulator's 200M default).
	Fuel     int64         `json:"fuel"`
	Table2   []Table2Row   `json:"table2"`
	Table3   []Table3Row   `json:"table3"`
	Table4   []Table4Row   `json:"table4"`
	Figure5a *Figure       `json:"figure5a"`
	Figure5b *Figure       `json:"figure5b"`
	Figure5c *Figure       `json:"figure5c"`
	Embedded []EmbeddedRow `json:"embedded"`
	// FigureMech is the mechanism-layer extension figure. It is produced
	// only by DocumentExp("figmech") — not by Document — and is omitted
	// from the JSON when absent, so full-evaluation artifacts remain
	// byte-identical to pre-mechanism-layer runs.
	FigureMech *Figure `json:"figuremech,omitempty"`
}

// Document runs every experiment DocumentExp("all") selects and collects
// the artifacts.
func (r *Runner) Document(ctx context.Context) (*BenchDocument, error) {
	return r.DocumentExp(ctx, "all")
}

// DocumentExp runs the experiments SelectExperiments(exp) selects, in
// print order, into an otherwise-empty document. Narrow documents share
// the full document's per-row artifact cache when Runner.Artifacts is
// set: running "all" warms every narrower selection and vice versa.
func (r *Runner) DocumentExp(ctx context.Context, exp string) (*BenchDocument, error) {
	sel, err := SelectExperiments(exp)
	if err != nil {
		return nil, err
	}
	doc := &BenchDocument{Schema: BenchSchema, Fuel: r.Fuel}
	for _, e := range sel {
		if err := e.run(r, ctx, doc); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// WriteBenchJSON writes doc as indented JSON. Output is byte-stable for a
// given document (map keys are emitted sorted).
func WriteBenchJSON(w io.Writer, doc *BenchDocument) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
