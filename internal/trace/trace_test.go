package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sdr/internal/core"
	"sdr/internal/graph"
	"sdr/internal/sim"
	"sdr/internal/unison"
)

// recordedRun runs a short composed execution with a recorder attached and
// returns both.
func recordedRun(t *testing.T, opts ...RecorderOption) (*Recorder, sim.Result) {
	t.Helper()
	g := graph.Ring(6)
	u := unison.New(unison.DefaultPeriod(g.N()))
	comp := core.Compose(u)
	net := sim.NewNetwork(g)
	rec := NewRecorder(comp, opts...)
	daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(3)), 0.5)
	res := sim.NewEngine(net, comp, daemon).Run(sim.InitialConfiguration(comp, net),
		sim.WithMaxSteps(50),
		sim.WithStepHook(rec.Hook()),
	)
	return rec, res
}

// TestRecorderCountsMatchEngine checks the event log against the run's
// counters: one event per step, and the activated processes and rule names
// of the events add up to Result's per-process and per-rule move counts.
func TestRecorderCountsMatchEngine(t *testing.T) {
	rec, res := recordedRun(t)
	if len(rec.Events()) != res.Steps {
		t.Errorf("recorded %d events for %d steps", len(rec.Events()), res.Steps)
	}
	byProc := make([]int, len(res.MovesPerProcess))
	byRule := make(map[string]int)
	for _, ev := range rec.Events() {
		if len(ev.Activated) == 0 || len(ev.Rules) != len(ev.Activated) {
			t.Fatalf("step %d: %d activated processes with %d rules", ev.Step, len(ev.Activated), len(ev.Rules))
		}
		for i, u := range ev.Activated {
			byProc[u]++
			byRule[ev.Rules[i]]++
		}
	}
	if !reflect.DeepEqual(byProc, res.MovesPerProcess) {
		t.Errorf("events give per-process moves %v, engine %v", byProc, res.MovesPerProcess)
	}
	if !reflect.DeepEqual(byRule, res.MovesPerRule) {
		t.Errorf("events give per-rule moves %v, engine %v", byRule, res.MovesPerRule)
	}
}

func TestRecorderConfigurationsOption(t *testing.T) {
	rec, _ := recordedRun(t, WithConfigurations())
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	for _, ev := range events {
		if ev.After == "" {
			t.Fatal("WithConfigurations must record the post-step configuration")
		}
	}
	recPlain, _ := recordedRun(t)
	if recPlain.Events()[0].After != "" {
		t.Error("configurations must not be recorded by default")
	}
}

func TestRecorderMaxEvents(t *testing.T) {
	rec, _ := recordedRun(t, WithMaxEvents(5))
	if len(rec.Events()) != 5 {
		t.Errorf("recorded %d events, want the cap of 5", len(rec.Events()))
	}
	if !rec.Truncated() {
		t.Error("the recorder must report truncation")
	}
}

func TestSummary(t *testing.T) {
	_, res := recordedRun(t)
	s := Summary(res)
	for _, want := range []string{"moves:", "moves by rule:", "moves by process:", "p0"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestSummaryCountsAllSteps pins the summary's step count on a run longer
// than the event cap: it is the run's, not the length of the event log.
func TestSummaryCountsAllSteps(t *testing.T) {
	rec, res := recordedRun(t, WithMaxEvents(5))
	if res.Steps <= 5 {
		t.Fatalf("the run took %d steps; it must outlast the cap of 5", res.Steps)
	}
	var buf bytes.Buffer
	if err := rec.WriteText(&buf, res); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := fmt.Sprintf("moves: %d over %d steps (6 processes)\n", res.Moves, res.Steps)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("text output lacks %q:\n%s", want, buf.String())
	}
}

func TestWriteText(t *testing.T) {
	rec, res := recordedRun(t, WithMaxEvents(3), WithConfigurations())
	var buf bytes.Buffer
	if err := rec.WriteText(&buf, res); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"step", "activated", "truncated", "moves by rule"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rec, res := recordedRun(t)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "step,round,process,rule" {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	if len(lines)-1 != res.Moves {
		t.Errorf("CSV has %d data rows, want one per move (%d)", len(lines)-1, res.Moves)
	}
	for _, line := range lines[1:] {
		if len(strings.Split(line, ",")) != 4 {
			t.Errorf("CSV row %q does not have 4 fields", line)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	rec, res := recordedRun(t)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var export JSONExport
	if err := json.Unmarshal(buf.Bytes(), &export); err != nil {
		t.Fatalf("the JSON export does not parse: %v", err)
	}
	if export.Processes != 6 || export.Moves != res.Moves || len(export.Events) != res.Steps {
		t.Errorf("export summary mismatch: %+v", export)
	}
	if len(export.MovesByProcess) != 6 {
		t.Errorf("export has %d per-process counters, want 6", len(export.MovesByProcess))
	}
}

// TestExportMatrix pins the JSON and CSV export paths across the recorder's
// option matrix: event cap (unbounded vs truncating) × configuration keeping
// (on vs off). The run is fully deterministic, so the exports of a truncated
// recorder must be exact prefixes of the unbounded recorder's exports — same
// events, same bytes per row — with only the truncation marker and the After
// fields varying by option.
func TestExportMatrix(t *testing.T) {
	type variant struct {
		name        string
		maxEvents   int
		keepConfigs bool
	}
	variants := []variant{
		{"unbounded", 0, false},
		{"unbounded-configs", 0, true},
		{"truncated", 4, false},
		{"truncated-configs", 4, true},
	}
	type export struct {
		csv  string
		json JSONExport
		res  sim.Result
	}
	exports := make(map[string]export)
	for _, v := range variants {
		var opts []RecorderOption
		if v.maxEvents > 0 {
			opts = append(opts, WithMaxEvents(v.maxEvents))
		}
		if v.keepConfigs {
			opts = append(opts, WithConfigurations())
		}
		rec, res := recordedRun(t, opts...)
		var csvBuf, jsonBuf bytes.Buffer
		if err := rec.WriteCSV(&csvBuf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", v.name, err)
		}
		if err := rec.WriteJSON(&jsonBuf, res); err != nil {
			t.Fatalf("%s: WriteJSON: %v", v.name, err)
		}
		var ex JSONExport
		if err := json.Unmarshal(jsonBuf.Bytes(), &ex); err != nil {
			t.Fatalf("%s: JSON export does not parse: %v", v.name, err)
		}
		exports[v.name] = export{csv: csvBuf.String(), json: ex, res: res}

		wantEvents := res.Steps
		if v.maxEvents > 0 && v.maxEvents < wantEvents {
			wantEvents = v.maxEvents
		}
		if len(ex.Events) != wantEvents {
			t.Errorf("%s: %d exported events, want %d", v.name, len(ex.Events), wantEvents)
		}
		if ex.Truncated != (v.maxEvents > 0 && res.Steps > v.maxEvents) {
			t.Errorf("%s: truncated = %v with %d steps and cap %d", v.name, ex.Truncated, res.Steps, v.maxEvents)
		}
		// The move counters always cover the whole run, cap or not.
		if ex.Moves != res.Moves {
			t.Errorf("%s: exported %d moves, engine reports %d", v.name, ex.Moves, res.Moves)
		}
		for _, ev := range ex.Events {
			if v.keepConfigs && ev.After == "" {
				t.Errorf("%s: event %d lost its configuration", v.name, ev.Step)
			}
			if !v.keepConfigs && ev.After != "" {
				t.Errorf("%s: event %d carries a configuration without the option", v.name, ev.Step)
			}
		}
	}

	// Prefix pinning: the deterministic run makes the truncated CSV exactly
	// the head of the unbounded CSV, and the truncated event list exactly the
	// head of the unbounded event list.
	full, cut := exports["unbounded"], exports["truncated"]
	if !strings.HasPrefix(full.csv, cut.csv) {
		t.Errorf("truncated CSV is not a prefix of the full CSV:\n--- truncated\n%s--- full\n%s", cut.csv, full.csv)
	}
	for i, ev := range cut.json.Events {
		fe := full.json.Events[i]
		if ev.Step != fe.Step || ev.Round != fe.Round ||
			len(ev.Activated) != len(fe.Activated) || len(ev.Rules) != len(fe.Rules) {
			t.Errorf("truncated event %d diverges from the full export: %+v vs %+v", i, ev, fe)
		}
	}
	// Keeping configurations must not perturb what is recorded, only add the
	// After field: the configs-on CSV is byte-identical (CSV never includes
	// configurations).
	if exports["unbounded-configs"].csv != full.csv {
		t.Error("WithConfigurations changed the CSV export")
	}
}

// failingWriter fails after a fixed number of writes, to exercise the error
// paths of the writers.
type failingWriter struct{ remaining int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, errWriteFailed
	}
	w.remaining--
	return len(p), nil
}

var errWriteFailed = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestWriterErrorsArePropagated(t *testing.T) {
	rec, res := recordedRun(t)
	if err := rec.WriteText(&failingWriter{remaining: 1}, res); err == nil {
		t.Error("WriteText must propagate write failures")
	}
	if err := rec.WriteCSV(&failingWriter{remaining: 0}); err == nil {
		t.Error("WriteCSV must propagate write failures")
	}
	if err := rec.WriteJSON(&failingWriter{remaining: 0}, res); err == nil {
		t.Error("WriteJSON must propagate write failures")
	}
}
