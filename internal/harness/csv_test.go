package harness_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"

	"elag/internal/harness"
)

func TestWriteFigureCSV(t *testing.T) {
	fig := &harness.Figure{
		Title:      "t",
		Benchmarks: []string{"a", "b"},
		Series: []harness.FigureSeries{
			{Label: "s1", Speedups: map[string]float64{"a": 1.5, "b": 1.25}, Average: 1.375},
		},
	}
	var buf bytes.Buffer
	if err := harness.WriteFigureCSV(&buf, fig); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 { // header + a + b + average
		t.Fatalf("%d records", len(recs))
	}
	if recs[1][0] != "a" || recs[1][1] != "s1" || recs[1][2] != "1.500" {
		t.Errorf("row: %v", recs[1])
	}
	if recs[3][0] != "average" || recs[3][2] != "1.375" {
		t.Errorf("average row: %v", recs[3])
	}
}

func TestWriteTableCSVs(t *testing.T) {
	t2 := []harness.Table2Row{{Name: "x", LoadsK: 1, StaticPD: 50, DynPD: 60, RatePD: 90}}
	var buf bytes.Buffer
	if err := harness.WriteTable2CSV(&buf, t2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x,1.000,") {
		t.Errorf("table2 csv: %q", buf.String())
	}
	buf.Reset()
	t3 := []harness.Table3Row{{Name: "y", Speedup: 1.2}}
	if err := harness.WriteTable3CSV(&buf, t3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "y,1.200,") {
		t.Errorf("table3 csv: %q", buf.String())
	}
	buf.Reset()
	t4 := []harness.Table4Row{{Table2Row: t2[0], Speedup: 1.1}}
	if err := harness.WriteTable4CSV(&buf, t4); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(buf.String()), "1.100") {
		t.Errorf("table4 csv: %q", buf.String())
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// exportCSV runs r.ExportCSV(exp) into memory, returning the files by name.
func exportCSV(r *harness.Runner, exp string) (map[string]*bytes.Buffer, error) {
	files := map[string]*bytes.Buffer{}
	err := r.ExportCSV(ctx, exp, func(name string) (io.WriteCloser, error) {
		b := &bytes.Buffer{}
		files[name] = b
		return nopCloser{b}, nil
	})
	return files, err
}

func TestExportCSVWritesEveryArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all experiments")
	}
	files, err := exportCSV(&harness.Runner{Fuel: 120_000}, "all")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table2.csv", "table3.csv", "table4.csv",
		"fig5a.csv", "fig5b.csv", "fig5c.csv"} {
		b, ok := files[want]
		if !ok || b.Len() == 0 {
			t.Errorf("artifact %s missing or empty", want)
		}
	}
	if len(files) != 6 {
		t.Errorf("wrote %d files, want the six table and figure CSVs", len(files))
	}
}

// TestExportCSVFollowsSelection: ExportCSV writes the CSV of exactly the
// experiments its selection names, and a selection with no CSV form is an
// error that writes nothing.
func TestExportCSVFollowsSelection(t *testing.T) {
	r := &harness.Runner{Fuel: 20_000}
	for _, exp := range []string{"fig5a", "figmech"} {
		files, err := exportCSV(r, exp)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if len(files) != 1 || files[exp+".csv"] == nil || files[exp+".csv"].Len() == 0 {
			t.Errorf("%s: wrote %d files, want only a non-empty %s.csv", exp, len(files), exp)
		}
	}
	if files, err := exportCSV(r, "embedded"); err == nil || len(files) != 0 {
		t.Errorf("embedded: wrote %d files, err %v; want no files and an error", len(files), err)
	}
}
