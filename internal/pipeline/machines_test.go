package pipeline_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"elag"
	"elag/internal/isa"
	"elag/internal/mech"
	"elag/internal/pipeline"
)

// TestMachines checks each row of the machine table: String round-trips
// its name, its default config is the paper's and New (which validates)
// accepts it, Config drops what the row does not drive, Validate names the
// row when a spec asks for it anyway, and elag.NamedConfig(name, 0, 0) is
// the row's default.
func TestMachines(t *testing.T) {
	defaults := map[string]string{"base": "[]", "hw-pred": "[addrpred:256]", "hw-early": "[earlycalc:16]",
		"hw-dual": "[addrpred:256 earlycalc:16]", "compiler": "[addrpred:256 earlycalc:1]"}
	prog := &isa.Program{Insts: []isa.Inst{{Op: isa.OpHalt}}, Symbols: map[string]int{"main": 0}}
	for _, m := range pipeline.Machines {
		if got := m.Select.String(); got != m.Name {
			t.Errorf("%s: Selection(%d).String() = %q", m.Name, m.Select, got)
		}
		def := m.Select.Config(m.Table, m.Regs)
		if got := fmt.Sprint(def.Mechanisms); got != defaults[m.Name] || def.Select != m.Select {
			t.Errorf("%s: default config %+v, want mechanisms %s", m.Name, def, defaults[m.Name])
		}
		delete(defaults, m.Name)
		if _, err := pipeline.New(def, prog, nil); err != nil {
			t.Errorf("%s: default config: %v", m.Name, err)
		}
		if got := m.Select.Config(64, 4); len(got.Mechanisms) != len(def.Mechanisms) {
			t.Errorf("%s: Config(64, 4) = %v, want only the kinds of %v", m.Name, got.Mechanisms, def.Mechanisms)
		}
		for _, sp := range []mech.Spec{{Kind: "addrpred", Entries: 64}, {Kind: "earlycalc", Entries: 4}} {
			err := pipeline.Config{Select: m.Select, Mechanisms: []mech.Spec{sp}}.Validate()
			driven := sp.Kind == "addrpred" && m.Table != 0 || sp.Kind == "earlycalc" && m.Regs != 0
			if driven != (err == nil) {
				t.Errorf("%s: Validate(%s) = %v", m.Name, sp, err)
			} else if err != nil && !strings.Contains(err.Error(), "selection "+m.Name+" never uses") {
				t.Errorf("%s: error %q does not name the machine", m.Name, err)
			}
		}
		if got, err := elag.NamedConfig(m.Name, 0, 0); err != nil || !reflect.DeepEqual(got, def) {
			t.Errorf("NamedConfig(%q, 0, 0) = %+v, %v; want %+v", m.Name, got, err, def)
		}
	}
	if len(defaults) != 0 {
		t.Errorf("machines missing from the table: %v", defaults)
	}
}
