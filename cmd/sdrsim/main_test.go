package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sdr/internal/scenario"
)

func TestSimulateUnison(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-algorithm", "unison", "-topology", "ring", "-n", "8", "-seed", "3"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"U(K=9)∘SDR", "stabilized", "reset", "moves by rule"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestSimulateAllianceWithTrace(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-algorithm", "alliance", "-spec", "dominating-set",
		"-topology", "random", "-n", "9", "-seed", "2", "-trace", "-format", "csv",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "1-minimal=true") {
		t.Errorf("the alliance run should report a 1-minimal output:\n%s", text)
	}
	if !strings.Contains(text, "step,round,process,rule") {
		t.Errorf("the CSV trace header is missing:\n%s", text)
	}
}

// TestProfileStepsFlag pins two things: the profile block appears (with the
// sequential engine's phases and the coverage line), and profiling is purely
// additive — the report lines before the block are byte-identical to an
// unprofiled run.
func TestProfileStepsFlag(t *testing.T) {
	base := []string{"-algorithm", "unison", "-topology", "ring", "-n", "8", "-seed", "3"}
	var plain, profiled bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(append(append([]string{}, base...), "-profile-steps", "2"), &profiled); err != nil {
		t.Fatalf("run -profile-steps: %v", err)
	}
	text := profiled.String()
	for _, want := range []string{"profile   :", "guard_eval", "step_wall", "cover"} {
		if !strings.Contains(text, want) {
			t.Errorf("profiled output missing %q:\n%s", want, text)
		}
	}
	// Strip the profile block (the only wall-clock-dependent lines) and the
	// two outputs must match exactly.
	var stripped []string
	inBlock := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "profile   :"):
			inBlock = true
			continue
		case inBlock && strings.HasPrefix(line, "  "):
			continue
		default:
			inBlock = false
		}
		stripped = append(stripped, line)
	}
	if got := strings.Join(stripped, "\n"); got != plain.String() {
		t.Errorf("profiling changed the report:\n--- plain\n%s--- profiled (stripped)\n%s", plain.String(), got)
	}
	if err := run([]string{"-profile-steps", "-1"}, &plain); err == nil {
		t.Error("negative -profile-steps must be rejected")
	}
}

func TestSimulateStandaloneAndBPV(t *testing.T) {
	for _, algo := range []string{"unison-standalone", "alliance-standalone", "bpv"} {
		var out bytes.Buffer
		args := []string{"-algorithm", algo, "-topology", "ring", "-n", "6", "-scenario", "none", "-max-steps", "500"}
		if err := run(args, &out); err != nil {
			t.Errorf("algorithm %s: %v", algo, err)
		}
	}
}

func TestSimulateAllTopologies(t *testing.T) {
	for _, top := range []string{"ring", "path", "star", "complete", "tree", "grid", "torus", "hypercube", "random"} {
		var out bytes.Buffer
		args := []string{"-topology", top, "-n", "8", "-seed", "4", "-max-steps", "50000"}
		if err := run(args, &out); err != nil {
			t.Errorf("topology %s: %v", top, err)
		}
	}
}

func TestSimulateAllDaemonsAndScenarios(t *testing.T) {
	for _, daemon := range []string{"synchronous", "central-random", "distributed-random", "locally-central", "round-robin", "greedy-adversarial"} {
		var out bytes.Buffer
		args := []string{"-daemon", daemon, "-n", "6", "-max-steps", "20000"}
		if err := run(args, &out); err != nil {
			t.Errorf("daemon %s: %v", daemon, err)
		}
	}
	for _, scenario := range []string{"random-all", "inner-only", "fake-wave", "half-corrupt", "none"} {
		var out bytes.Buffer
		args := []string{"-scenario", scenario, "-n", "6", "-max-steps", "20000"}
		if err := run(args, &out); err != nil {
			t.Errorf("scenario %s: %v", scenario, err)
		}
	}
}

func TestSimulateJSONTrace(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "6", "-trace", "-format", "json", "-max-steps", "5000"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "\"events\"") {
		t.Errorf("JSON trace missing events:\n%s", out.String())
	}
}

func TestSimulateRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-algorithm", "nope"},
		{"-topology", "nope"},
		{"-daemon", "nope"},
		{"-scenario", "nope"},
		{"-algorithm", "alliance", "-spec", "nope"},
		{"-trace", "-format", "nope"},
		{"-algorithm", "alliance", "-spec", "2-tuple-domination", "-topology", "path", "-n", "6"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v should be rejected", args)
		}
	}
}

// TestListJSONMatchesRegistryDump pins -list -json to the shared encoder:
// the CLI output must be byte-identical to scenario.WriteRegistryJSON (and
// therefore to sdrbench -list -json and the sdrd /v1/registry body).
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
	if !json.Valid(got.Bytes()) {
		t.Errorf("-list -json output is not valid JSON:\n%s", got.Bytes())
	}
}

// TestShardsFlagIdentical pins exact sharding at the CLI: at n=256 the run
// really uses 4 shards (internal/scenario TestSpecShardsReachTheEngine checks
// the count reaches the engine), and its report is byte-identical to the
// sequential one under every daemon checked.
func TestShardsFlagIdentical(t *testing.T) {
	for _, daemon := range []string{"synchronous", "central-random", "round-robin"} {
		base := []string{"-algorithm", "unison", "-topology", "torus", "-n", "256", "-daemon", daemon, "-seed", "5"}
		var seq, sharded bytes.Buffer
		if err := run(base, &seq); err != nil {
			t.Fatalf("%s: sequential run: %v", daemon, err)
		}
		if err := run(append(append([]string{}, base...), "-shards", "4"), &sharded); err != nil {
			t.Fatalf("%s: sharded run: %v", daemon, err)
		}
		if sharded.String() != seq.String() {
			t.Errorf("%s: sharded output diverges from sequential:\n--- sequential\n%s--- sharded\n%s", daemon, seq.String(), sharded.String())
		}
	}
}

func TestShardsRejectedUnderVerify(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-algorithm", "unison", "-topology", "ring", "-n", "4", "-verify", "-shards", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("-verify -shards 2 must be rejected, got %v", err)
	}
}
