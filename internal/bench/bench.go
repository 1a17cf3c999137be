// Package bench is the experiment harness of the reproduction: one runner per
// quantitative claim of the paper (experiments E1-E10, indexed by
// Experiments) plus the ablations A1-A3. The same runners back the
// root-level testing.B benchmarks and the cmd/sdrbench CLI, so the tables
// printed by both always agree.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config sizes an experiment run. Quick configurations keep unit tests and
// testing.B iterations fast; the full configuration is what cmd/sdrbench
// uses to regenerate the complete tables.
type Config struct {
	// Sizes is the sweep of network sizes n.
	Sizes []int
	// Trials is the number of random repetitions per point (different seeds,
	// corrupted starts and daemon randomness).
	Trials int
	// Seed is the base seed; every trial derives its own seed from it.
	Seed int64
	// MaxSteps bounds each simulated execution.
	MaxSteps int
	// Parallel is the maximum number of concurrently executed trials;
	// values ≤ 1 run the grid sequentially. Per-trial seeding makes the
	// tables identical for every value.
	Parallel int
}

// QuickConfig returns the configuration used by unit tests and by the
// testing.B benchmarks: small sizes, few trials.
func QuickConfig() Config {
	return Config{
		Sizes:    []int{8, 12, 16},
		Trials:   3,
		Seed:     1,
		MaxSteps: 400_000,
	}
}

// FullConfig returns the configuration used by cmd/sdrbench to regenerate
// the complete experiment tables.
func FullConfig() Config {
	return Config{
		Sizes:    []int{8, 16, 24, 32, 48, 64},
		Trials:   5,
		Seed:     1,
		MaxSteps: 4_000_000,
	}
}

// withDefaults fills zero fields from QuickConfig so that partially
// constructed configurations behave sensibly.
func (c Config) withDefaults() Config {
	q := QuickConfig()
	if len(c.Sizes) == 0 {
		c.Sizes = q.Sizes
	}
	if c.Trials <= 0 {
		c.Trials = q.Trials
	}
	if c.Seed == 0 {
		c.Seed = q.Seed
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = q.MaxSteps
	}
	return c
}

// Table is one experiment's result table: the rows cmd/sdrbench prints.
type Table struct {
	// ID is the experiment identifier (E1, ..., A3).
	ID string
	// Title describes the paper claim the table checks.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows (cells already formatted).
	Rows [][]string
	// Notes carries free-form observations (e.g. growth-exponent fits).
	Notes []string
	// Violations counts rows in which a measured cost exceeded the proven
	// bound or a correctness check failed; 0 means the experiment agrees with
	// the paper.
	Violations int
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return fmt.Errorf("bench: render table: %w", err)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, cell)
		}
		_, err := fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return fmt.Errorf("bench: render table: %w", err)
	}
	if err := writeRow(separators(widths)); err != nil {
		return fmt.Errorf("bench: render table: %w", err)
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return fmt.Errorf("bench: render table: %w", err)
		}
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", note); err != nil {
			return fmt.Errorf("bench: render table: %w", err)
		}
	}
	status := "OK (all measurements within the proven bounds)"
	if t.Violations > 0 {
		status = fmt.Sprintf("VIOLATIONS: %d row(s) exceeded a bound or failed a check", t.Violations)
	}
	if _, err := fmt.Fprintf(w, "  %s\n", status); err != nil {
		return fmt.Errorf("bench: render table: %w", err)
	}
	return nil
}

// Markdown renders the table as a GitHub-flavoured markdown table (the
// -markdown output of cmd/sdrbench).
func (t *Table) Markdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return fmt.Errorf("bench: render markdown: %w", err)
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | ")); err != nil {
		return fmt.Errorf("bench: render markdown: %w", err)
	}
	if _, err := fmt.Fprintf(w, "|%s\n", strings.Repeat("---|", len(t.Columns))); err != nil {
		return fmt.Errorf("bench: render markdown: %w", err)
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return fmt.Errorf("bench: render markdown: %w", err)
		}
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n*%s*\n", note); err != nil {
			return fmt.Errorf("bench: render markdown: %w", err)
		}
	}
	_, err := fmt.Fprintln(w)
	if err != nil {
		return fmt.Errorf("bench: render markdown: %w", err)
	}
	return nil
}

// JSON writes the table as an indented JSON object, the machine-readable
// form behind cmd/sdrbench -json (one BENCH_<ID>.json per table), so the
// benchmark trajectory can be tracked across revisions instead of only
// pretty-printed.
func (t *Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("bench: render json: %w", err)
	}
	return nil
}

func separators(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	// ID is the experiment identifier (E1, ..., E10, A1, ..., A3).
	ID string
	// Title summarises the paper claim being reproduced.
	Title string
	// Run regenerates the experiment's table under the given configuration.
	// A configuration whose scenarios the registries reject (a size too
	// small for a topology, say) is an error.
	Run func(cfg Config) (Table, error)
}

// Experiments returns every experiment of the suite, in suite order: the
// per-experiment index.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "SDR reaches a normal configuration within 3n rounds (Corollary 5)", Run: RunE1ResetRounds},
		{ID: "E2", Title: "each process executes at most 3n+3 SDR moves (Corollary 4)", Run: RunE2ResetMovesPerProcess},
		{ID: "E3", Title: "at most n+1 segments and no alive-root creation (Theorem 3, Remark 5)", Run: RunE3Segments},
		{ID: "E4", Title: "U∘SDR stabilizes within 3n rounds (Theorem 7)", Run: RunE4UnisonRounds},
		{ID: "E5", Title: "U∘SDR stabilizes in O(D·n²) moves (Theorem 6)", Run: RunE5UnisonMoves},
		{ID: "E6", Title: "U∘SDR vs the BPV baseline in stabilization moves (Section 5.3)", Run: RunE6UnisonVsBPV},
		{ID: "E7", Title: "FGA terminates in O(Δ·m) moves (Corollary 11)", Run: RunE7FGAMoves},
		{ID: "E8", Title: "FGA terminates within 5n+4 rounds from clean states (Theorem 10)", Run: RunE8FGARounds},
		{ID: "E9", Title: "FGA∘SDR stabilizes in O(Δ·n·m) moves and 8n+4 rounds (Theorems 12-14)", Run: RunE9AllianceStabilization},
		{ID: "E10", Title: "outputs are correct: 1-minimal alliances and unison safety/liveness (Theorems 8, 11; Corollary 7)", Run: RunE10Correctness},
		{ID: "A1", Title: "ablation: cooperative vs uncooperative resets", Run: RunA1NoCooperation},
		{ID: "A2", Title: "ablation: daemon sensitivity", Run: RunA2Daemons},
		{ID: "A3", Title: "ablation: unison period sensitivity", Run: RunA3Period},
		{ID: "X1", Title: "extension: silent self-stabilizing BFS spanning tree via B∘SDR", Run: RunX1SpanningTree},
	}
}

// ExperimentByID returns the experiment with the given identifier
// (case-insensitive), or an error listing the known identifiers.
func ExperimentByID(id string) (Experiment, error) {
	want := strings.ToUpper(strings.TrimSpace(id))
	var known []string
	for _, e := range Experiments() {
		if e.ID == want {
			return e, nil
		}
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}
