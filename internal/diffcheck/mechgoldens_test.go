package diffcheck

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"elag/internal/pipeline"
	"elag/internal/workload"

	elag "elag"
)

// mechGoldensPath holds frozen pre-refactor metrics for every embedded
// workload under every named configuration. The mechanism-layer refactor
// claims to be invisible to the paper configurations; this file is the
// proof anchor — regenerate it only on a commit that deliberately changes
// the timing model, with ELAG_UPDATE_GOLDENS=1.
const mechGoldensPath = "testdata/mech_goldens.json"

const mechGoldensSchema = "elag-mech-goldens/v1"

type mechGoldensDoc struct {
	Schema  string
	Fuel    int64
	Entries map[string]json.RawMessage
}

func mechGoldenMetrics(t *testing.T, fuel int64) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, w := range workload.All() {
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: build: %v", w.Name, err)
		}
		// Every machine (the shared CLI/serve vocabulary) at table=256
		// and its default register count.
		for _, mc := range pipeline.Machines {
			name := mc.Name
			cfg, err := elag.NamedConfig(name, 256, 0)
			if err != nil {
				t.Fatalf("config %s: %v", name, err)
			}
			m, _, err := p.Simulate(cfg, fuel)
			if err != nil {
				t.Fatalf("%s/%s: simulate: %v", w.Name, name, err)
			}
			buf, err := json.Marshal(m)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", w.Name, name, err)
			}
			out[w.Name+"/"+name] = buf
		}
	}
	return out
}

// TestMechGoldens byte-compares every workload × named-configuration
// metrics struct against the frozen goldens. Any drift — a counter
// renamed, a cycle gained, a new field serialized on old configurations —
// fails with the offending entry named.
func TestMechGoldens(t *testing.T) {
	if os.Getenv("ELAG_UPDATE_GOLDENS") != "" {
		fresh := mechGoldenMetrics(t, 200_000)
		d := mechGoldensDoc{
			Schema:  mechGoldensSchema,
			Fuel:    200_000,
			Entries: make(map[string]json.RawMessage, len(fresh)),
		}
		for k, v := range fresh {
			d.Entries[k] = v
		}
		buf, err := json.MarshalIndent(&d, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mechGoldensPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d entries", mechGoldensPath, len(fresh))
		return
	}

	raw, err := os.ReadFile(mechGoldensPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with ELAG_UPDATE_GOLDENS=1): %v", err)
	}
	var d mechGoldensDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	if d.Schema != mechGoldensSchema {
		t.Fatalf("golden schema %q, want %q", d.Schema, mechGoldensSchema)
	}
	fresh := mechGoldenMetrics(t, d.Fuel)
	if len(fresh) != len(d.Entries) {
		t.Errorf("goldens hold %d entries, fresh run produced %d", len(d.Entries), len(fresh))
	}
	for key, want := range d.Entries {
		got, ok := fresh[key]
		if !ok {
			t.Errorf("%s: golden entry has no fresh counterpart (workload or config removed?)", key)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, want); err != nil {
			t.Errorf("%s: compact golden: %v", key, err)
			continue
		}
		if !bytes.Equal(compact.Bytes(), got) {
			t.Errorf("%s: metrics diverged from pre-refactor golden\n golden: %s\n  fresh: %s",
				key, compact.Bytes(), got)
		}
	}
	for key := range fresh {
		if _, ok := d.Entries[key]; !ok {
			t.Errorf("%s: fresh entry missing from goldens (regenerate with ELAG_UPDATE_GOLDENS=1)", key)
		}
	}
}
