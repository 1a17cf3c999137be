package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<ID>.golden from the current experiment tables")

// TestExperimentGoldens pins every experiment table at tinyConfig byte for
// byte: a change to a runner, the scenario pipeline or the engine that moves
// any measured cell shows up as a golden diff. Regenerate with
// go test ./internal/bench -run TestExperimentGoldens -update.
func TestExperimentGoldens(t *testing.T) {
	cfg := tinyConfig()
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			table, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := table.Render(&got); err != nil {
				t.Fatalf("render: %v", err)
			}
			path := filepath.Join("testdata", e.ID+".golden")
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
				t.Errorf("%s table differs from %s:\n--- got\n%s--- want\n%s", e.ID, path, got.Bytes(), want)
			}
		})
	}
}
