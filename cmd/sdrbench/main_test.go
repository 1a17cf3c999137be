package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdr/internal/scenario"
)

func TestListExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, want := range []string{"E1", "E10", "A3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunSingleExperimentText(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "E8", "-sizes", "6", "-trials", "1", "-seed", "5"}, &out)
	if err != nil {
		t.Fatalf("run E8: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "E8") || !strings.Contains(text, "bound 5n+4") {
		t.Errorf("unexpected E8 output:\n%s", text)
	}
	if !strings.Contains(text, "OK") {
		t.Errorf("the E8 run should report no violations:\n%s", text)
	}
}

func TestRunSingleExperimentMarkdown(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "E3", "-quick", "-sizes", "6", "-trials", "1", "-markdown"}, &out)
	if err != nil {
		t.Fatalf("run E3 markdown: %v", err)
	}
	if !strings.Contains(out.String(), "### E3") || !strings.Contains(out.String(), "|") {
		t.Errorf("markdown output looks wrong:\n%s", out.String())
	}
}

func TestParallelFlagDeterministic(t *testing.T) {
	var sequential, parallel bytes.Buffer
	base := []string{"-experiment", "E8", "-sizes", "6,8", "-trials", "2", "-seed", "5"}
	if err := run(append(base, "-parallel", "1"), &sequential); err != nil {
		t.Fatalf("run sequential: %v", err)
	}
	if err := run(append(base, "-parallel", "4"), &parallel); err != nil {
		t.Fatalf("run parallel: %v", err)
	}
	if sequential.String() != parallel.String() {
		t.Errorf("-parallel changed the table:\n%s\nvs\n%s", sequential.String(), parallel.String())
	}
}

func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-experiment", "E8", "-sizes", "6", "-trials", "1", "-seed", "5", "-json", "-json-dir", dir}, &out)
	if err != nil {
		t.Fatalf("run E8 -json: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_E8.json"))
	if err != nil {
		t.Fatalf("BENCH_E8.json not written: %v", err)
	}
	var table struct {
		ID         string
		Columns    []string
		Rows       [][]string
		Violations int
	}
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatalf("BENCH_E8.json is not valid JSON: %v", err)
	}
	if table.ID != "E8" || len(table.Rows) == 0 || len(table.Columns) == 0 {
		t.Errorf("unexpected JSON table: %+v", table)
	}
	if table.Violations != 0 {
		t.Errorf("E8 reported %d violations", table.Violations)
	}
}

func TestVerifyMode(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{
		"-verify",
		"-algorithms", "unison,dominating-set",
		"-topologies", "ring",
		"-sizes", "4,5", "-seed", "1",
		"-verify-starts", "3",
		"-json", "-json-dir", dir,
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("run -verify: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "VERIFY") || strings.Count(text, "certified") != 4 {
		t.Errorf("verify output looks wrong:\n%s", text)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_VERIFY.json"))
	if err != nil {
		t.Fatalf("BENCH_VERIFY.json not written: %v", err)
	}
	var table struct {
		ID         string
		Rows       [][]string
		Violations int
	}
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatalf("BENCH_VERIFY.json is not valid JSON: %v", err)
	}
	if table.ID != "VERIFY" || len(table.Rows) != 4 || table.Violations != 0 {
		t.Errorf("unexpected verification table: %+v", table)
	}

	// A truncated exploration must fail the command (non-zero exit), so CI
	// cannot silently pass an uncovered space.
	var truncated bytes.Buffer
	err = run([]string{"-verify", "-algorithms", "unison", "-topologies", "ring", "-sizes", "5", "-verify-max-configs", "20"}, &truncated)
	if err == nil {
		t.Error("an incomplete verification must fail the command")
	}
}

func TestListIncludesRegistries(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, want := range []string{"sweep algorithms", "unison-uncoop", "hypercube", "greedy-adversarial", "fake-wave"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "E42"}, &out); err == nil {
		t.Error("an unknown experiment id must be rejected")
	}
}

// TestExperimentSizeTooSmallIsAnError runs experiments on networks of two
// nodes, which parseSizes accepts but a ring cannot have: the topology's
// error must come back from run instead of a panic.
func TestExperimentSizeTooSmallIsAnError(t *testing.T) {
	for _, id := range []string{"E1", "E10"} {
		var out bytes.Buffer
		err := run([]string{"-experiment", id, "-sizes", "2", "-trials", "1"}, &out)
		if err == nil || !strings.Contains(err.Error(), "ring requires n >= 3") {
			t.Errorf("%s at n=2: error %v, want the ring's size error", id, err)
		}
	}
}

func TestParseSizes(t *testing.T) {
	sizes, err := parseSizes("8, 16,24")
	if err != nil || len(sizes) != 3 || sizes[0] != 8 || sizes[2] != 24 {
		t.Errorf("parseSizes = %v, %v", sizes, err)
	}
	for _, bad := range []string{"", "abc", "8,-2", "1"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) should fail", bad)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("unknown flags must be rejected")
	}
}

// TestListJSONMatchesRegistryDump pins -list -json to the shared encoder:
// the CLI output must be byte-identical to scenario.WriteRegistryJSON (and
// therefore to sdrsim -list -json and the sdrd /v1/registry body).
func TestListJSONMatchesRegistryDump(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-list", "-json"}, &got); err != nil {
		t.Fatalf("run -list -json: %v", err)
	}
	var want bytes.Buffer
	if err := scenario.WriteRegistryJSON(&want); err != nil {
		t.Fatalf("WriteRegistryJSON: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("-list -json diverged from scenario.WriteRegistryJSON:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}
