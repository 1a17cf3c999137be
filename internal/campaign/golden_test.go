package campaign

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/churn-smoke.golden.jsonl from the current stream")

// bufferSink collects a campaign stream in memory, line by line, exactly as
// the file sink writes it.
type bufferSink struct{ bytes.Buffer }

func (b *bufferSink) WriteLine(v any) error {
	line, err := MarshalLine(v)
	if err != nil {
		return err
	}
	b.Write(line)
	return nil
}

// TestChurnSmokeGolden pins the record stream of the committed churn-smoke
// campaign byte for byte: availability, recovery_* and every other metric
// of an injected run. A change to the engine's legitimacy or recovery
// accounting, the churn injector or the record encoding that moves any byte
// shows up as a diff. Regenerate with
// go test ./internal/campaign -run TestChurnSmokeGolden -update.
func TestChurnSmokeGolden(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("..", "..", "baselines", "churn-smoke.campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bufferSink
	if _, err := RunSink(spec, &got, Options{Parallel: 2}); err != nil {
		t.Fatalf("RunSink: %v", err)
	}
	path := filepath.Join("testdata", "churn-smoke.golden.jsonl")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("churn-smoke stream differs from %s:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
