package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a small fixed-trial campaign over a 2-cell grid.
func testSpec() Spec {
	return Spec{
		ID:         "test",
		Algorithms: []string{"unison"},
		Topologies: []string{"ring"},
		Daemons:    []string{"synchronous", "distributed-random"},
		Faults:     []string{"random-all"},
		Sizes:      []int{6},
		Seed:       1,
		MinTrials:  3,
	}
}

func runInto(t *testing.T, spec Spec, opts Options) (*Result, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "CAMPAIGN_"+spec.ID+".jsonl")
	res, err := Run(spec, path, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, path
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

func TestRunStreamsRecordsAndAggregates(t *testing.T) {
	res, path := runInto(t, testSpec(), Options{})
	lines := readLines(t, path)
	if len(lines) != 1+2*3 {
		t.Fatalf("expected header + 6 trial lines, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var h fileHeader
	if err := json.Unmarshal([]byte(lines[0]), &h); err != nil || h.Type != "campaign" || h.Spec.ID != "test" {
		t.Fatalf("bad header line %q: %v", lines[0], err)
	}
	for i, line := range lines[1:] {
		var rec TrialRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trial line %d: %v", i, err)
		}
		if rec.Type != "trial" || rec.Skipped || !rec.OK {
			t.Errorf("trial %d not an ok trial: %+v", i, rec)
		}
		if rec.Metrics[MetricMoves] <= 0 || rec.Metrics[MetricRounds] <= 0 {
			t.Errorf("trial %d has empty metrics: %+v", i, rec.Metrics)
		}
		if _, timed := rec.Metrics[MetricDuration]; timed {
			t.Errorf("trial %d records wall-clock time without RecordTime", i)
		}
	}
	if len(res.Cells) != 2 {
		t.Fatalf("expected 2 cell aggregates, got %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Trials != 3 || !c.OK || c.Skipped {
			t.Errorf("unexpected aggregate: %+v", c)
		}
		m := c.Metrics[MetricMoves]
		if m.Count != 3 || m.Mean <= 0 || m.P50 < m.Min || m.P99 > m.Max {
			t.Errorf("bad moves aggregate: %+v", m)
		}
	}
}

// churnSpec is testSpec with a churn axis and the recovery primary metric.
func churnSpec() Spec {
	s := testSpec()
	s.ID = "churntest"
	s.Daemons = []string{"distributed-random"}
	s.Churns = []string{"periodic:events=2,every=100"}
	s.Metric = MetricRecoveryRounds
	s.MaxSteps = 300_000
	return s
}

func TestChurnCampaignRecordsRecoveryMetrics(t *testing.T) {
	res, path := runInto(t, churnSpec(), Options{})
	lines := readLines(t, path)
	for i, line := range lines[1:] {
		var rec TrialRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trial line %d: %v", i, err)
		}
		if rec.Churn != "periodic:events=2,every=100" {
			t.Errorf("trial %d misses the churn cell key: %+v", i, rec.CellKey)
		}
		if !rec.OK {
			t.Errorf("trial %d failed (an event never recovered): %+v", i, rec)
		}
		for _, m := range []string{MetricRecoveryRounds, MetricRecoveryMoves, MetricRecoverySteps, MetricAvailability} {
			if _, ok := rec.Metrics[m]; !ok {
				t.Errorf("trial %d misses %s: %+v", i, m, rec.Metrics)
			}
		}
	}
	for _, c := range res.Cells {
		agg, ok := c.Metrics[MetricRecoveryRounds]
		if !ok || agg.Mean < 0 {
			t.Errorf("cell %s has no recovery_rounds aggregate: %+v", c.Cell, c.Metrics)
		}
		avail := c.Metrics[MetricAvailability]
		if avail.Mean <= 0 || avail.Mean >= 1 {
			t.Errorf("cell %s availability %v outside (0,1)", c.Cell, avail.Mean)
		}
	}
}

func TestChurnCampaignAdaptiveOnRecoveryMetric(t *testing.T) {
	// The recovery metric drives the CI stopping rule like any built-in one.
	spec := churnSpec()
	spec.CITarget = 2.0 // generous: stop as soon as the CI is assessable
	spec.MinTrials = 3
	spec.MaxTrials = 8
	res, _ := runInto(t, spec, Options{Parallel: 4})
	for _, c := range res.Cells {
		if c.Trials < 3 || c.Trials > 8 {
			t.Errorf("adaptive churn cell ran %d trials: %+v", c.Trials, c)
		}
	}
}

// TestInterruptFlushesAndResumes pins the graceful-interrupt contract: a
// campaign stopped via Options.Interrupt leaves a clean resumable stream, and
// resuming it produces the byte-identical uninterrupted stream.
func TestInterruptFlushesAndResumes(t *testing.T) {
	spec := testSpec()
	_, wholePath := runInto(t, spec, Options{})
	whole, err := os.ReadFile(wholePath)
	if err != nil {
		t.Fatal(err)
	}

	// The progress writer closes the interrupt channel after the first
	// completed cell, so the interrupted run deterministically covers cell 1
	// and stops before cell 2's first trial wave.
	stop := make(chan struct{})
	var once bool
	progress := writerFunc(func(p []byte) (int, error) {
		if !once {
			once = true
			close(stop)
		}
		return len(p), nil
	})
	path := filepath.Join(t.TempDir(), "CAMPAIGN_test.jsonl")
	_, err = Run(spec, path, Options{Progress: progress, Interrupt: stop})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	partial, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(readLines(t, path)), 1+3; got != want {
		t.Fatalf("interrupted stream has %d lines, want header + first cell's 3 trials:\n%s", got, partial)
	}
	if !bytes.HasPrefix(whole, partial) {
		t.Fatalf("interrupted stream is not a prefix of the uninterrupted one:\n%q\nvs\n%q", partial, whole)
	}

	if _, err := Run(spec, path, Options{Resume: true}); err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, whole) {
		t.Errorf("resume after interrupt diverged:\n%q\nvs\n%q", resumed, whole)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestRunParallelByteIdentical(t *testing.T) {
	spec := testSpec()
	_, seq := runInto(t, spec, Options{Parallel: 1})
	_, par := runInto(t, spec, Options{Parallel: 8})
	a, _ := os.ReadFile(seq)
	b, _ := os.ReadFile(par)
	if !bytes.Equal(a, b) {
		t.Errorf("parallelism changed the stream:\n%s\nvs\n%s", a, b)
	}
}

// TestShardedCampaignStreamsIdenticalRecords pins exact sharding at the
// campaign layer: at n=256 a spec with "shards": 2 really runs 2 shards, and
// with memoization off (sharded cells drop it) every trial record is
// byte-identical to the unsharded spec's, under central and round-robin
// daemons alike. Only the spec header line differs.
func TestShardedCampaignStreamsIdenticalRecords(t *testing.T) {
	spec := Spec{
		ID:         "shardtest",
		Algorithms: []string{"unison", "bfstree"},
		Topologies: []string{"ring", "torus"},
		Daemons:    []string{"central-random", "round-robin"},
		Faults:     []string{"random-all"},
		Sizes:      []int{256},
		Seed:       1,
		MinTrials:  2,
		MemoOff:    true,
	}
	_, seqPath := runInto(t, spec, Options{})
	spec.Shards = 2
	_, shardedPath := runInto(t, spec, Options{})
	seq, sharded := readLines(t, seqPath), readLines(t, shardedPath)
	if len(seq) != len(sharded) {
		t.Fatalf("sharded stream has %d lines, unsharded %d", len(sharded), len(seq))
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] != sharded[i] {
			t.Errorf("record %d differs:\n  unsharded %s\n  sharded   %s", i, seq[i], sharded[i])
		}
	}
}

func TestRunRefusesExistingStream(t *testing.T) {
	spec := testSpec()
	_, path := runInto(t, spec, Options{})
	if _, err := Run(spec, path, Options{}); !errors.Is(err, ErrExists) {
		t.Fatalf("rerunning onto an existing stream must fail with ErrExists, got %v", err)
	}
}

func TestRecordTimeAddsDuration(t *testing.T) {
	spec := testSpec()
	spec.RecordTime = true
	res, path := runInto(t, spec, Options{})
	lines := readLines(t, path)
	var rec TrialRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Metrics[MetricDuration]; !ok {
		t.Errorf("RecordTime should add %s: %+v", MetricDuration, rec.Metrics)
	}
	if _, ok := res.Cells[0].Metrics[MetricDuration]; !ok {
		t.Error("duration missing from the aggregates")
	}
}

// TestProfileStepsAddsPhaseMetrics runs a campaign with step profiling on:
// every trial record must carry phase_* timing metrics, the aggregates must
// cover them, and a phase_* primary metric must drive the adaptive stopping
// rule without tripping validation.
func TestProfileStepsAddsPhaseMetrics(t *testing.T) {
	spec := testSpec()
	spec.ID = "proftest"
	spec.ProfileSteps = 1
	spec.Metric = "phase_step_ns"
	res, path := runInto(t, spec, Options{})
	lines := readLines(t, path)
	for i, line := range lines[1:] {
		var rec TrialRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Metrics["phase_step_ns"] <= 0 {
			t.Errorf("trial %d: missing phase_step_ns: %+v", i, rec.Metrics)
		}
		// Both daemons of the grid run the sequential engine, so the
		// select/execute phases must have been sampled.
		for _, m := range []string{"phase_select_ns", "phase_execute_ns"} {
			if _, ok := rec.Metrics[m]; !ok {
				t.Errorf("trial %d: missing %s: %+v", i, m, rec.Metrics)
			}
		}
	}
	for _, c := range res.Cells {
		if m, ok := c.Metrics["phase_step_ns"]; !ok || m.Count != c.Trials {
			t.Errorf("cell %s: phase_step_ns aggregate missing or short: %+v", c.Cell, c.Metrics)
		}
	}
}

// TestProfileStepsKeepsStreamDeterministic pins that profiling is purely
// observational: the deterministic metrics of a profiled run are identical to
// an unprofiled run of the same spec (only the spec header and the wall-clock
// phase_* values may differ).
func TestProfileStepsKeepsStreamDeterministic(t *testing.T) {
	plain := testSpec()
	profiled := testSpec()
	profiled.ProfileSteps = 2
	resPlain, _ := runInto(t, plain, Options{})
	resProf, _ := runInto(t, profiled, Options{})
	if len(resPlain.Cells) != len(resProf.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(resPlain.Cells), len(resProf.Cells))
	}
	for i := range resPlain.Cells {
		a, b := resPlain.Cells[i], resProf.Cells[i]
		for _, m := range []string{MetricMoves, MetricRounds, MetricSteps} {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("cell %s metric %s changed under profiling: %+v vs %+v",
					a.Cell, m, a.Metrics[m], b.Metrics[m])
			}
		}
	}
}

// TestResumeByteIdentity is the pinned checkpoint/resume contract: a
// campaign interrupted at any point — between records or mid-line — and
// resumed produces byte-identical JSONL and aggregates to an uninterrupted
// run.
func TestResumeByteIdentity(t *testing.T) {
	spec := testSpec()
	wholeRes, wholePath := runInto(t, spec, Options{})
	whole, err := os.ReadFile(wholePath)
	if err != nil {
		t.Fatal(err)
	}
	wholeSnap, err := json.Marshal(wholeRes.Snapshot(Meta{}))
	if err != nil {
		t.Fatal(err)
	}

	lines := bytes.SplitAfter(whole, []byte("\n"))
	// Cut points: after the header, mid-campaign, mid-cell, after the last
	// record (a completed stream), and mid-line (interrupted write).
	cuts := []int{
		len(lines[0]),                 // header only
		len(lines[0]) + len(lines[1]), // one record
		len(lines[0]) + len(lines[1]) + len(lines[2]) + len(lines[3]), // first cell + one trial of the second
		len(whole),                         // fully complete
		len(whole) - 7,                     // last line cut mid-write
		len(lines[0]) + len(lines[1]) + 12, // second record cut mid-write
	}
	for _, cut := range cuts {
		path := filepath.Join(t.TempDir(), "CAMPAIGN_test.jsonl")
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec, path, Options{Resume: true, Parallel: 4})
		if err != nil {
			t.Fatalf("resume from byte %d: %v", cut, err)
		}
		resumed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed, whole) {
			t.Errorf("resume from byte %d diverged:\n%q\nvs\n%q", cut, resumed, whole)
		}
		snap, err := json.Marshal(res.Snapshot(Meta{}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, wholeSnap) {
			t.Errorf("resume from byte %d changed the aggregates:\n%s\nvs\n%s", cut, snap, wholeSnap)
		}
	}
}

func TestResumeOfMissingFileStartsFresh(t *testing.T) {
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "CAMPAIGN_test.jsonl")
	if _, err := Run(spec, path, Options{Resume: true}); err != nil {
		t.Fatalf("resuming a not-yet-started campaign must start it: %v", err)
	}
}

func TestResumeRejectsForeignSpec(t *testing.T) {
	spec := testSpec()
	_, path := runInto(t, spec, Options{})
	other := spec
	other.Seed = 99
	if _, err := Run(other, path, Options{Resume: true}); err == nil {
		t.Fatal("resuming with a different spec must fail")
	}
}

func TestResumeRejectsCorruptStream(t *testing.T) {
	spec := testSpec()
	_, path := runInto(t, spec, Options{})
	whole, _ := os.ReadFile(path)
	lines := bytes.SplitAfter(whole, []byte("\n"))

	// A corrupt record followed by further lines is unrecoverable.
	bad := append([]byte{}, lines[0]...)
	bad = append(bad, []byte("not json\n")...)
	bad = append(bad, lines[1]...)
	corrupt := filepath.Join(t.TempDir(), "c.jsonl")
	os.WriteFile(corrupt, bad, 0o644)
	if _, err := Run(spec, corrupt, Options{Resume: true}); err == nil {
		t.Error("a corrupt interior record must fail the resume")
	}

	// A record with a gap in trial indices is rejected.
	var rec TrialRecord
	json.Unmarshal(bytes.TrimSuffix(lines[1], []byte("\n")), &rec)
	rec.Trial = 2
	gapLine, _ := json.Marshal(rec)
	gap := append([]byte{}, lines[0]...)
	gap = append(gap, gapLine...)
	gap = append(gap, '\n')
	gapPath := filepath.Join(t.TempDir(), "g.jsonl")
	os.WriteFile(gapPath, gap, 0o644)
	if _, err := Run(spec, gapPath, Options{Resume: true}); err == nil {
		t.Error("a trial-index gap must fail the resume")
	}

	// A missing header is rejected.
	noHeader := filepath.Join(t.TempDir(), "h.jsonl")
	os.WriteFile(noHeader, lines[1], 0o644)
	if _, err := Run(spec, noHeader, Options{Resume: true}); err == nil {
		t.Error("a stream without a campaign header must fail the resume")
	}
}

func TestAdaptiveStopsAtZeroVariance(t *testing.T) {
	// Without fault injection every seeded trial of a cell is identical, so
	// the CI collapses immediately and the cell stops at the minimum.
	spec := testSpec()
	spec.Faults = []string{"none"}
	spec.CITarget = 0.01
	spec.MinTrials = 3
	spec.MaxTrials = 12
	res, path := runInto(t, spec, Options{})
	for _, c := range res.Cells {
		if c.Trials != 3 {
			t.Errorf("zero-variance cell ran %d trials, want 3: %+v", c.Trials, c)
		}
	}
	if lines := readLines(t, path); len(lines) != 1+2*3 {
		t.Errorf("stream should hold exactly the recorded trials, got %d lines", len(lines))
	}
}

func TestAdaptiveRunsToMaxOnNoise(t *testing.T) {
	// An unreachable precision target drives noisy cells to MaxTrials.
	spec := testSpec()
	spec.Daemons = []string{"distributed-random"}
	spec.CITarget = 1e-9
	spec.MinTrials = 3
	spec.MaxTrials = 6
	res, _ := runInto(t, spec, Options{Parallel: 4})
	if got := res.Cells[0].Trials; got != 6 {
		t.Errorf("noisy cell ran %d trials, want the 6-trial cap", got)
	}
}

func TestAdaptiveParallelByteIdentical(t *testing.T) {
	// Speculative wave trials beyond the stop point must be discarded, so
	// the stream is identical at any parallelism even with adaptive counts.
	spec := testSpec()
	spec.CITarget = 0.25
	spec.MinTrials = 3
	spec.MaxTrials = 10
	_, seq := runInto(t, spec, Options{Parallel: 1})
	_, par := runInto(t, spec, Options{Parallel: 8})
	a, _ := os.ReadFile(seq)
	b, _ := os.ReadFile(par)
	if !bytes.Equal(a, b) {
		t.Errorf("adaptive stream depends on parallelism:\n%s\nvs\n%s", a, b)
	}
}

func TestUnsatisfiableCellsAreSkipped(t *testing.T) {
	// A path's endpoints have degree 1 < the 2-tuple-domination requirement,
	// so every trial of that cell is skipped.
	spec := testSpec()
	spec.Algorithms = []string{"2-tuple-domination"}
	spec.Topologies = []string{"path"}
	spec.Daemons = []string{"synchronous"}
	spec.Faults = nil
	res, _ := runInto(t, spec, Options{})
	c := res.Cells[0]
	if !c.Skipped || c.Trials != 3 || len(c.Metrics) != 0 {
		t.Errorf("unsatisfiable cell should be skipped after MinTrials: %+v", c)
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]func(*Spec){
		"empty id":                    func(s *Spec) { s.ID = "" },
		"bad id chars":                func(s *Spec) { s.ID = "a b" },
		"unknown algorithm":           func(s *Spec) { s.Algorithms = []string{"nope"} },
		"unknown metric":              func(s *Spec) { s.Metric = "nope" },
		"duration sans time":          func(s *Spec) { s.Metric = MetricDuration },
		"ci without max":              func(s *Spec) { s.CITarget = 0.1 },
		"max below min":               func(s *Spec) { s.CITarget = 0.1; s.MinTrials = 8; s.MaxTrials = 4 },
		"negative trials":             func(s *Spec) { s.MinTrials = -1 },
		"negative ci target":          func(s *Spec) { s.CITarget = -0.5 },
		"phase metric sans profiling": func(s *Spec) { s.Metric = "phase_step_ns" },
		"negative profile steps":      func(s *Spec) { s.ProfileSteps = -1 },
		"size below one":              func(s *Spec) { s.Sizes = []int{6, 0} },
	}
	for name, mutate := range cases {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

func TestLoadSpecRoundTrip(t *testing.T) {
	spec := testSpec()
	spec.CITarget = 0.05
	spec.MaxTrials = 10
	path := filepath.Join(t.TempDir(), "spec.json")
	data, _ := json.MarshalIndent(spec, "", "  ")
	os.WriteFile(path, data, 0o644)
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	if !specsEqual(loaded, spec) {
		t.Errorf("round trip changed the spec: %+v vs %+v", loaded, spec)
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a missing spec file must fail")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, []byte("{"), 0o644)
	if _, err := LoadSpec(badPath); err == nil {
		t.Error("unparseable spec must fail")
	}
}

// TestCommittedSpecsLoad keeps the campaign specs under baselines/ (the CI
// smoke grids, the bench gate, E1E3) loadable as the Spec schema and its
// registries evolve. Each spec's id must match its file name, because CI
// reads the BENCH_<ID>.json the id names.
func TestCommittedSpecsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "baselines", "*.campaign.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed campaign specs found: %v", err)
	}
	for _, path := range paths {
		spec, err := LoadSpec(path)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if stem := strings.TrimSuffix(filepath.Base(path), ".campaign.json"); !strings.EqualFold(spec.ID, stem) {
			t.Errorf("%s: id %q does not match the file name", path, spec.ID)
		}
	}
}

func TestProgressStream(t *testing.T) {
	var buf bytes.Buffer
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "p.jsonl")
	if _, err := Run(spec, path, Options{Progress: &buf}); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	count := 0
	for sc.Scan() {
		if !strings.Contains(sc.Text(), "trials=3") {
			t.Errorf("unexpected progress line %q", sc.Text())
		}
		count++
	}
	if count != 2 {
		t.Errorf("expected one progress line per cell, got %d", count)
	}
}

func TestTableRendersCells(t *testing.T) {
	res, _ := runInto(t, testSpec(), Options{})
	table := res.Table()
	if table.ID != "TEST" || len(table.Rows) != 2 || table.Violations != 0 {
		t.Fatalf("unexpected table: %+v", table)
	}
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"campaign test", "moves(mean±ci95)", "unison", "OK"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered table missing %q:\n%s", want, buf.String())
		}
	}
}
