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

// recordedRun runs a composed execution of the given number of steps (U ∘ SDR
// never terminates) with a recorder attached and returns both.
func recordedRun(t *testing.T, steps int) (*Recorder, sim.Result) {
	t.Helper()
	g := graph.Ring(6)
	u := unison.New(unison.DefaultPeriod(g.N()))
	comp := core.Compose(u)
	net := sim.NewNetwork(g)
	rec := NewRecorder(comp)
	daemon := sim.NewDistributedRandomDaemon(rand.New(rand.NewSource(3)), 0.5)
	res := sim.NewEngine(net, comp, daemon).Run(sim.InitialConfiguration(comp, net),
		sim.WithMaxSteps(steps),
		sim.WithStepHook(rec.Hook()),
	)
	return rec, res
}

// TestRecorderCountsMatchEngine checks the event log against the run's
// counters: one event per step, and the activated processes and rule names
// of the events add up to Result's per-process and per-rule move counts.
func TestRecorderCountsMatchEngine(t *testing.T) {
	rec, res := recordedRun(t, 50)
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

func TestRecorderMaxEvents(t *testing.T) {
	rec, _ := recordedRun(t, maxEvents+5)
	if len(rec.Events()) != maxEvents {
		t.Errorf("recorded %d events, want the cap of %d", len(rec.Events()), maxEvents)
	}
	if !rec.Truncated() {
		t.Error("the recorder must report truncation")
	}
}

func TestSummary(t *testing.T) {
	_, res := recordedRun(t, 50)
	s := Summary(res)
	for _, want := range []string{"moves:", "moves by rule:", "moves by process:", "p0"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestSummaryAggregatesLargeRuns feeds the summary a run of 1000 processes:
// one line gives the min, mean and max of the per-process moves and names
// the process with the most, instead of one line per process.
func TestSummaryAggregatesLargeRuns(t *testing.T) {
	moves := make([]int, 1000)
	total := 0
	for u := range moves {
		moves[u] = 1 + u%7
		total += moves[u]
	}
	moves[617] = 40
	total += 40 - (1 + 617%7)
	s := Summary(sim.Result{Moves: total, Steps: total, MovesPerProcess: moves, MovesPerRule: map[string]int{"R": total}})
	want := fmt.Sprintf("moves by process: min 1, mean %.2f, max 40 (p617)\n", float64(total)/1000)
	if !strings.Contains(s, want) {
		t.Errorf("summary lacks %q:\n%s", want, s)
	}
	if lines := strings.Count(s, "\n"); lines > 5 {
		t.Errorf("summary of 1000 processes has %d lines:\n%s", lines, s)
	}
}

// TestSummaryCountsAllSteps pins the summary's step count on a run longer
// than the event cap: it is the run's, not the length of the event log.
func TestSummaryCountsAllSteps(t *testing.T) {
	rec, res := recordedRun(t, maxEvents+5)
	if res.Steps <= maxEvents {
		t.Fatalf("the run took %d steps; it must outlast the cap of %d", res.Steps, maxEvents)
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
	rec, res := recordedRun(t, maxEvents+3)
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
	rec, res := recordedRun(t, 50)
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
	rec, res := recordedRun(t, 50)
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

// TestExportMatrix pins the JSON and CSV export paths of a run that fits
// under the event cap and of a longer one that is truncated. The run is fully
// deterministic, so the truncated exports hold exactly the events of the
// unbounded run of maxEvents steps, with only the truncation marker and the
// move counters differing.
func TestExportMatrix(t *testing.T) {
	type export struct {
		csv  string
		json JSONExport
		res  sim.Result
	}
	exports := make(map[string]export)
	for _, v := range []struct {
		name  string
		steps int
	}{{"unbounded", maxEvents}, {"truncated", maxEvents + 4}} {
		rec, res := recordedRun(t, v.steps)
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

		if len(ex.Events) != min(res.Steps, maxEvents) {
			t.Errorf("%s: %d exported events for %d steps", v.name, len(ex.Events), res.Steps)
		}
		if ex.Truncated != (res.Steps > maxEvents) {
			t.Errorf("%s: truncated = %v with %d steps", v.name, ex.Truncated, res.Steps)
		}
		// The move counters always cover the whole run, cap or not.
		if ex.Moves != res.Moves {
			t.Errorf("%s: exported %d moves, engine reports %d", v.name, ex.Moves, res.Moves)
		}
	}

	full, cut := exports["unbounded"], exports["truncated"]
	if cut.csv != full.csv {
		t.Error("the truncated CSV differs from the CSV of the run that fits the cap")
	}
	for i, ev := range cut.json.Events {
		fe := full.json.Events[i]
		if ev.Step != fe.Step || ev.Round != fe.Round ||
			len(ev.Activated) != len(fe.Activated) || len(ev.Rules) != len(fe.Rules) {
			t.Errorf("truncated event %d diverges from the full export: %+v vs %+v", i, ev, fe)
		}
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
	rec, res := recordedRun(t, 50)
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
