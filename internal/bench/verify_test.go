package bench

import (
	"bytes"
	"reflect"
	"testing"

	"sdr/internal/scenario"
)

func verifyTestSweep() scenario.Sweep {
	return scenario.Sweep{
		Algorithms: []string{"unison", "dominating-set"},
		Topologies: []string{"ring"},
		Faults:     []string{"random-all"},
		Sizes:      []int{4, 5},
		Seed:       1,
	}
}

func TestRunVerifyCertifiesGrid(t *testing.T) {
	table, err := RunVerify(verifyTestSweep(), scenario.VerifyOptions{Starts: 3, MaxSelectionSize: 1, Workers: 2}, 1)
	if err != nil {
		t.Fatalf("RunVerify: %v", err)
	}
	if got, want := len(table.Rows), 4; got != want {
		t.Fatalf("verify table has %d rows, want %d", got, want)
	}
	if table.Violations != 0 {
		var buf bytes.Buffer
		_ = table.Render(&buf)
		t.Fatalf("verification reported violations:\n%s", buf.String())
	}
	verdictCol := len(table.Columns) - 1
	for _, row := range table.Rows {
		if row[verdictCol] != "certified" {
			t.Errorf("cell %v not certified", row)
		}
	}
}

// TestRunVerifyParallelDeterministic pins the acceptance property: the table
// is bit-identical whether the cells and explorations run sequentially or
// fanned out over worker pools.
func TestRunVerifyParallelDeterministic(t *testing.T) {
	sequential, err := RunVerify(verifyTestSweep(), scenario.VerifyOptions{Starts: 3, MaxSelectionSize: 1, Workers: 1}, 1)
	if err != nil {
		t.Fatalf("sequential RunVerify: %v", err)
	}
	parallel, err := RunVerify(verifyTestSweep(), scenario.VerifyOptions{Starts: 3, MaxSelectionSize: 1, Workers: 6}, 4)
	if err != nil {
		t.Fatalf("parallel RunVerify: %v", err)
	}
	if !reflect.DeepEqual(sequential, parallel) {
		t.Errorf("parallel verification table diverged:\n%+v\nvs\n%+v", sequential, parallel)
	}
}

func TestRunVerifySkipsUnsatisfiableCells(t *testing.T) {
	sw := scenario.Sweep{
		Algorithms: []string{"2-tuple-domination"},
		Topologies: []string{"path"},
		Faults:     []string{"random-all"},
		Sizes:      []int{5},
		Seed:       1,
	}
	table, err := RunVerify(sw, scenario.VerifyOptions{Starts: 2, MaxSelectionSize: 1}, 1)
	if err != nil {
		t.Fatalf("RunVerify: %v", err)
	}
	if len(table.Rows) != 1 || table.Rows[0][len(table.Columns)-1] != "skipped" {
		t.Fatalf("unsatisfiable cell not skipped: %v", table.Rows)
	}
	if table.Violations != 0 {
		t.Errorf("a skipped cell must not count as a violation")
	}
}

// TestRunVerifyReportsTruncation asserts a configuration cap too small to
// cover the reachable space yields an incomplete verdict and a violation,
// not a silent pass.
func TestRunVerifyReportsTruncation(t *testing.T) {
	sw := verifyTestSweep()
	sw.Algorithms = []string{"unison"}
	sw.Sizes = []int{5}
	table, err := RunVerify(sw, scenario.VerifyOptions{Starts: 3, MaxSelectionSize: 1, MaxConfigurations: 20}, 1)
	if err != nil {
		t.Fatalf("RunVerify: %v", err)
	}
	if table.Violations != 1 {
		t.Errorf("truncated cell must count as a violation, table: %+v", table)
	}
	verdictCol := len(table.Columns) - 1
	if table.Rows[0][verdictCol] != "incomplete" {
		t.Errorf("verdict = %q, want incomplete", table.Rows[0][verdictCol])
	}
}

func TestRunVerifyRejectsUnverifiableAlgorithm(t *testing.T) {
	sw := verifyTestSweep()
	sw.Algorithms = []string{"unison-standalone"}
	if _, err := RunVerify(sw, scenario.VerifyOptions{}, 1); err == nil {
		t.Error("an algorithm without a legitimacy predicate must fail the verify sweep")
	}
}
