// Command sdrbench regenerates the experiment tables of the reproduction
// (E1-E10 and the ablations A1-A3; -list prints the per-experiment
// index). By default every experiment is run with the full configuration;
// use -experiment to run a single one and -quick for a fast, smaller sweep.
//
// Beyond the paper's tables, -verify sweeps exhaustive convergence
// certification (model checking every daemon choice, small n only) over an
// algorithm × topology × fault grid of the scenario registries, and -json
// writes every rendered table as machine-readable BENCH_<id>.json so the
// benchmark trajectory can be tracked across revisions.
//
// Any other grid — a custom algorithm × topology × daemon × fault sweep, a
// churn sweep, a sharded run — is a campaign: -campaign runs a JSON campaign
// spec (internal/campaign), trials stream to CAMPAIGN_<id>.jsonl as they
// complete (resumable with -resume after an interruption), and the per-cell
// aggregates snapshot to a versioned baseline BENCH_<ID>.json. -compare
// diffs two baselines benchstat-style with noise-aware thresholds and exits
// non-zero on significant regression — the CI bench gate.
//
// Usage:
//
//	sdrbench [-experiment E5] [-quick] [-markdown] [-sizes 8,16,32] [-trials 5] [-seed 1] [-parallel 8] [-json] [-json-dir out]
//	sdrbench -verify -algorithms unison,dominating-set -topologies ring,tree -sizes 4,5,6 -json
//	sdrbench -campaign spec.json [-resume] [-json-dir out] [-parallel 8]
//	sdrbench -compare [-metric moves] [-threshold 0.1] baselines/BENCH_GATE.json out/BENCH_GATE.json
//	sdrbench -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"sdr/internal/bench"
	"sdr/internal/campaign"
	"sdr/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdrbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sdrbench", flag.ContinueOnError)
	var (
		experiment   = fs.String("experiment", "", "run only the experiment with this id (E1..E10, A1..A3); empty runs all")
		quick        = fs.Bool("quick", false, "use the quick configuration (small sizes, few trials)")
		markdown     = fs.Bool("markdown", false, "emit GitHub-flavoured markdown tables instead of aligned text")
		sizes        = fs.String("sizes", "", "comma-separated list of network sizes overriding the configuration")
		trials       = fs.Int("trials", 0, "number of trials per point (0 keeps the configuration default)")
		seed         = fs.Int64("seed", 0, "base random seed (0 keeps the configuration default)")
		parallel     = fs.Int("parallel", 0, "max number of concurrently executed trials (0 = one per CPU, 1 = sequential); tables are identical for every value")
		list         = fs.Bool("list", false, "list the experiments and the scenario registries, then exit")
		jsonOut      = fs.Bool("json", false, "additionally write each table as machine-readable BENCH_<id>.json; with -list, print the machine-readable registry dump instead")
		jsonDir      = fs.String("json-dir", ".", "directory the -json files are written to")
		algorithms   = fs.String("algorithms", "unison", "comma-separated algorithm registry entries for -verify")
		topologies   = fs.String("topologies", "ring", "comma-separated topology registry entries for -verify")
		faultList    = fs.String("faults", "random-all", "comma-separated fault-model registry entries for -verify")
		campaignPath = fs.String("campaign", "", "run the JSON campaign spec at this path: stream trials to CAMPAIGN_<id>.jsonl and snapshot a baseline BENCH_<ID>.json in -json-dir")
		resume       = fs.Bool("resume", false, "continue an interrupted -campaign from its JSONL checkpoint")
		compare      = fs.Bool("compare", false, "compare two baseline files (old new) and exit non-zero on significant regression")
		metric       = fs.String("metric", "", "metric compared by -compare (default: the old baseline's primary metric)")
		threshold    = fs.Float64("threshold", 0, "relative mean regression -compare flags (0 = the default 0.10 = +10%)")
		verify       = fs.Bool("verify", false, "exhaustively certify convergence over the -algorithms × -topologies × -sizes grid (model checking, small n only)")
		vStarts      = fs.Int("verify-starts", 4, "number of seeded corrupted starts per -verify cell")
		vMaxConfig   = fs.Int("verify-max-configs", 0, "configuration cap per -verify exploration (0 = checker default)")
		vMaxSel      = fs.Int("verify-max-selection", 1, "daemon selection size cap for -verify: k certifies daemons activating ≤ k processes per step; 0 is exact but exponential")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start -cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sdrbench: create -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sdrbench: write -memprofile:", err)
			}
		}()
	}

	if *list {
		if *jsonOut {
			// Machine-readable registry dump: the same bytes sdrsim -list
			// -json prints and sdrd serves at GET /v1/registry.
			return scenario.WriteRegistryJSON(out)
		}
		fmt.Fprintln(out, "experiments:")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(out, "  %-4s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "sweep algorithms : %s\n", strings.Join(scenario.Algorithms(), ", "))
		fmt.Fprintf(out, "sweep topologies : %s\n", strings.Join(scenario.Topologies(), ", "))
		fmt.Fprintf(out, "sweep daemons    : %s\n", strings.Join(scenario.Daemons(), ", "))
		fmt.Fprintf(out, "sweep faults     : %s\n", strings.Join(scenario.FaultModels(), ", "))
		fmt.Fprintf(out, "churn schedules  : %s\n", strings.Join(scenario.ChurnSchedules(), ", "))
		return nil
	}

	if *compare {
		return runCompare(fs.Args(), *metric, *threshold, out)
	}

	cfg := bench.FullConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			return err
		}
		cfg.Sizes = parsed
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Parallel = *parallel
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.NumCPU()
	}

	emit := func(table bench.Table) error {
		if *markdown {
			if err := table.Markdown(out); err != nil {
				return err
			}
		} else {
			if err := table.Render(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if *jsonOut {
			if err := writeTableJSON(*jsonDir, table, out); err != nil {
				return err
			}
		}
		return nil
	}

	if *campaignPath != "" {
		return runCampaign(*campaignPath, *jsonDir, *resume, *markdown, cfg.Parallel, out)
	}

	if *verify {
		if *sizes == "" {
			// Exhaustive exploration is exponential in n; default to the
			// certifiable sizes instead of the sampling sweep's n ≤ 64.
			cfg.Sizes = []int{4, 5, 6}
		}
		sw := scenario.Sweep{
			Algorithms: splitNames(*algorithms),
			Topologies: splitNames(*topologies),
			Faults:     splitNames(*faultList),
			Sizes:      cfg.Sizes,
			Seed:       cfg.Seed,
		}
		table, err := bench.RunVerify(sw, scenario.VerifyOptions{
			Starts:            *vStarts,
			MaxConfigurations: *vMaxConfig,
			MaxSelectionSize:  *vMaxSel,
		}, cfg.Parallel)
		if err != nil {
			return err
		}
		if err := emit(table); err != nil {
			return err
		}
		if table.Violations > 0 {
			return fmt.Errorf("%d verification cell(s) were refuted or incomplete", table.Violations)
		}
		return nil
	}

	experiments := bench.Experiments()
	if *experiment != "" {
		e, err := bench.ExperimentByID(*experiment)
		if err != nil {
			return err
		}
		experiments = []bench.Experiment{e}
	}

	violations := 0
	for _, e := range experiments {
		table, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		violations += table.Violations
		if err := emit(table); err != nil {
			return err
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d measurement(s) violated a proven bound or failed a correctness check", violations)
	}
	return nil
}

// campaignInterrupt returns the channel campaign.Run polls for a graceful
// stop — closed on the first SIGINT/SIGTERM — plus a cleanup restoring the
// default signal disposition (so a second signal kills the process outright).
// Tests override the variable to trigger deterministic interrupts.
var campaignInterrupt = func() (<-chan struct{}, func()) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		if _, ok := <-sigs; ok {
			signal.Stop(sigs)
			close(stop)
		}
	}()
	return stop, func() { signal.Stop(sigs); close(sigs) }
}

// runCampaign executes the campaign spec file: trial records stream to
// <jsonDir>/CAMPAIGN_<id>.jsonl, the aggregate table renders to out, and the
// baseline snapshot is written as <jsonDir>/BENCH_<ID>.json (rotating any
// previous snapshot). SIGINT/SIGTERM stop the campaign gracefully: the JSONL
// checkpoint is flushed, and the run exits non-zero with a -resume hint.
func runCampaign(specPath, jsonDir string, resume, markdown bool, parallel int, out io.Writer) error {
	spec, err := campaign.LoadSpec(specPath)
	if err != nil {
		return err
	}
	jsonlPath := filepath.Join(jsonDir, fmt.Sprintf("CAMPAIGN_%s.jsonl", spec.ID))
	fmt.Fprintf(out, "campaign %s → %s\n", spec.ID, jsonlPath)
	interrupt, stopNotify := campaignInterrupt()
	defer stopNotify()
	res, err := campaign.Run(spec, jsonlPath, campaign.Options{
		Parallel:  parallel,
		Resume:    resume,
		Progress:  out,
		Interrupt: interrupt,
	})
	if errors.Is(err, campaign.ErrInterrupted) {
		return fmt.Errorf("%w; completed trials are checkpointed in %s — resume with -resume", err, jsonlPath)
	}
	if err != nil {
		return err
	}
	table := res.Table()
	if markdown {
		if err := table.Markdown(out); err != nil {
			return err
		}
	} else {
		if err := table.Render(out); err != nil {
			return err
		}
	}
	baselinePath := filepath.Join(jsonDir, fmt.Sprintf("BENCH_%s.json", table.ID))
	if err := writeJSONFile(baselinePath, out, func(f io.Writer) error {
		return campaign.WriteBaseline(f, res.Snapshot(campaign.CollectMeta()))
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "baseline: %s\n", baselinePath)
	if table.Violations > 0 {
		return fmt.Errorf("%d campaign cell(s) failed their correctness check", table.Violations)
	}
	return nil
}

// runCompare diffs two baseline files and fails on significant regression.
func runCompare(paths []string, metric string, threshold float64, out io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs exactly two baseline files (old new), got %d", len(paths))
	}
	old, err := campaign.LoadBaseline(paths[0])
	if err != nil {
		return err
	}
	cur, err := campaign.LoadBaseline(paths[1])
	if err != nil {
		return err
	}
	comparison, err := campaign.Compare(old, cur, campaign.CompareOptions{Metric: metric, Threshold: threshold})
	if err != nil {
		return err
	}
	if err := comparison.Render(out); err != nil {
		return err
	}
	if comparison.Compared == 0 {
		// Zero matched cells means the gate checked nothing (wrong artifact,
		// renamed campaign, unrecorded metric) — that must not pass.
		return fmt.Errorf("no comparable cells between %s and %s on %s", paths[0], paths[1], comparison.Metric)
	}
	if comparison.Regressions > 0 {
		return fmt.Errorf("%d cell(s) regressed significantly on %s", comparison.Regressions, comparison.Metric)
	}
	return nil
}

// writeTableJSON writes the table as BENCH_<id>.json in dir, noting any
// rotation of an earlier table on out.
func writeTableJSON(dir string, table bench.Table, out io.Writer) error {
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", table.ID))
	return writeJSONFile(path, out, func(f io.Writer) error {
		return table.JSON(f)
	})
}

// writeJSONFile writes a JSON artifact at path via write, first rotating any
// existing file to a numbered backup (path.1, path.2, ...) instead of
// silently overwriting earlier results; rotations are noted on out.
func writeJSONFile(path string, out io.Writer, write func(io.Writer) error) error {
	if backup, err := rotateExisting(path); err != nil {
		return err
	} else if backup != "" {
		fmt.Fprintf(out, "note: rotated existing %s to %s\n", path, backup)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rotateExisting moves an existing file at path to the first free numbered
// backup and returns the backup name ("" when path did not exist).
func rotateExisting(path string) (string, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return "", nil
	} else if err != nil {
		return "", fmt.Errorf("stat %s: %w", path, err)
	}
	for k := 1; ; k++ {
		backup := fmt.Sprintf("%s.%d", path, k)
		if _, err := os.Stat(backup); errors.Is(err, os.ErrNotExist) {
			if err := os.Rename(path, backup); err != nil {
				return "", fmt.Errorf("rotate %s: %w", path, err)
			}
			return backup, nil
		} else if err != nil {
			return "", fmt.Errorf("stat %s: %w", backup, err)
		}
	}
}

// splitNames parses a comma-separated name list, dropping empty parts.
func splitNames(s string) []string {
	var names []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			names = append(names, part)
		}
	}
	return names
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("invalid size %q (want integers ≥ 2)", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return sizes, nil
}
