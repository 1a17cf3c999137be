package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sdr/internal/scenario"
)

// tinyConfig keeps the experiment smoke tests fast.
func tinyConfig() Config {
	return Config{Sizes: []int{6, 8}, Trials: 2, Seed: 7, MaxSteps: 300_000}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("expected 14 experiments (E1-E10, A1-A3, X1), got %d", len(exps))
	}
	seen := make(map[string]bool)
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v is incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestExperimentByID(t *testing.T) {
	if _, err := ExperimentByID("e5"); err != nil {
		t.Errorf("lookup of e5 (case-insensitive) failed: %v", err)
	}
	if _, err := ExperimentByID("E99"); err == nil {
		t.Error("lookup of unknown experiment should fail")
	}
}

// TestAllExperimentsRunCleanly runs every experiment with a tiny
// configuration and requires that no bound is violated and every table has
// rows. This is the integration test of the whole harness: graph generators,
// simulator, SDR, both instantiations, the baseline and the fault injectors
// all participate.
func TestAllExperimentsRunCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	cfg := tinyConfig()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			table, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if table.ID != e.ID {
				t.Errorf("table id %q does not match experiment id %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if table.Violations != 0 {
				var buf bytes.Buffer
				_ = table.Render(&buf)
				t.Fatalf("experiment reported %d violations:\n%s", table.Violations, buf.String())
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("row %v has %d cells for %d columns", row, len(row), len(table.Columns))
				}
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	table := Table{
		ID:      "T",
		Title:   "test table",
		Columns: []string{"a", "bb"},
	}
	table.AddRow("1", "2")
	table.AddRow("333", "4")
	table.AddNote("a note %d", 7)

	var text bytes.Buffer
	if err := table.Render(&text); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := text.String()
	for _, want := range []string{"T — test table", "a    bb", "333", "note: a note 7", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}

	var md bytes.Buffer
	if err := table.Markdown(&md); err != nil {
		t.Fatalf("markdown: %v", err)
	}
	if !strings.Contains(md.String(), "| a | bb |") {
		t.Errorf("markdown output missing header row:\n%s", md.String())
	}

	table.Violations = 2
	text.Reset()
	if err := table.Render(&text); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(text.String(), "VIOLATIONS: 2") {
		t.Errorf("rendered table should flag violations:\n%s", text.String())
	}
}

func TestConfigDefaults(t *testing.T) {
	var empty Config
	filled := empty.withDefaults()
	if len(filled.Sizes) == 0 || filled.Trials == 0 || filled.MaxSteps == 0 || filled.Seed == 0 {
		t.Errorf("withDefaults left zero fields: %+v", filled)
	}
	custom := Config{Sizes: []int{5}, Trials: 9, Seed: 3, MaxSteps: 10}
	if got := custom.withDefaults(); got.Trials != 9 || got.MaxSteps != 10 || got.Seed != 3 || len(got.Sizes) != 1 {
		t.Errorf("withDefaults overwrote custom fields: %+v", got)
	}
}

func TestStandardTopologiesConnected(t *testing.T) {
	for _, name := range append(StandardTopologies(), DenseTopologies()...) {
		entry, err := scenario.TopologyByName(name)
		if err != nil {
			t.Fatalf("sweep topology %q is not registered: %v", name, err)
		}
		for _, n := range []int{5, 9, 16} {
			g := entry.Build(n, scenario.Params{}, newTestRand())
			if err := g.Validate(); err != nil {
				t.Errorf("topology %s(n=%d) invalid: %v", name, n, err)
			}
		}
	}
}

func TestTableJSON(t *testing.T) {
	table := Table{ID: "T", Title: "json", Columns: []string{"a"}}
	table.AddRow("1")
	var buf bytes.Buffer
	if err := table.JSON(&buf); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded Table
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if decoded.ID != "T" || len(decoded.Rows) != 1 || decoded.Rows[0][0] != "1" {
		t.Errorf("round-trip mismatch: %+v", decoded)
	}
}
