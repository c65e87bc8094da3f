package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// Experiment is one artifact of the evaluation, declared once: its name
// (elag-bench -exp, serve's JobSpec.Exp), how it runs into its field of a
// BenchDocument (see DocumentExp), and its text and CSV forms.
type Experiment struct {
	Name string
	run  func(r *Runner, ctx context.Context, doc *BenchDocument) error
	// Text renders the artifact of doc as elag-bench prints it.
	Text func(doc *BenchDocument) string
	// csv writes the artifact as Name.csv (see ExportCSV); nil when it
	// has no CSV form.
	csv func(w io.Writer, doc *BenchDocument) error
}

// Experiments lists every experiment in elag-bench's print order. The
// document's JSON bytes do not depend on the order experiments run in.
var Experiments = []Experiment{
	experiment("table2", (*Runner).Table2, func(d *BenchDocument) *[]Table2Row { return &d.Table2 },
		FormatTable2, WriteTable2CSV),
	experiment("table3", (*Runner).Table3, func(d *BenchDocument) *[]Table3Row { return &d.Table3 },
		FormatTable3, WriteTable3CSV),
	experiment("fig5a", (*Runner).Figure5a, func(d *BenchDocument) **Figure { return &d.Figure5a },
		FormatFigure, WriteFigureCSV),
	experiment("fig5b", (*Runner).Figure5b, func(d *BenchDocument) **Figure { return &d.Figure5b },
		FormatFigure, WriteFigureCSV),
	experiment("fig5c", (*Runner).Figure5c, func(d *BenchDocument) **Figure { return &d.Figure5c },
		FormatFigure, WriteFigureCSV),
	experiment("table4", (*Runner).Table4, func(d *BenchDocument) *[]Table4Row { return &d.Table4 },
		FormatTable4, WriteTable4CSV),
	experiment("embedded", (*Runner).Embedded, func(d *BenchDocument) *[]EmbeddedRow { return &d.Embedded },
		FormatEmbedded, nil),
	experiment("figmech", (*Runner).FigureMech, func(d *BenchDocument) **Figure { return &d.FigureMech },
		FormatFigure, WriteFigureCSV),
}

// experiment declares one row from the Runner method that computes the
// artifact, the document field that holds it, and its text and CSV forms.
func experiment[T any](name string, run func(*Runner, context.Context) (T, error),
	field func(*BenchDocument) *T, text func(T) string, csv func(io.Writer, T) error) Experiment {
	e := Experiment{Name: name,
		run: func(r *Runner, ctx context.Context, d *BenchDocument) (err error) {
			*field(d), err = run(r, ctx)
			return err
		},
		Text: func(d *BenchDocument) string { return text(*field(d)) },
	}
	if csv != nil {
		e.csv = func(w io.Writer, d *BenchDocument) error { return csv(w, *field(d)) }
	}
	return e
}

// SelectExperiments resolves an experiment name: "" or "all" selects every
// experiment but the mechanism-layer extension figmech, which runs only
// when named; any other name selects that one experiment. An unknown name
// is an error listing the valid ones.
func SelectExperiments(name string) ([]Experiment, error) {
	var sel []Experiment
	names := []string{"all"}
	for _, e := range Experiments {
		if e.Name == name || (name == "" || name == "all") && e.Name != "figmech" {
			sel = append(sel, e)
		}
		names = append(names, e.Name)
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(names, "|"))
	}
	return sel, nil
}
