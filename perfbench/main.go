// Command perfbench is the repository benchmark: three workloads, each an
// experiment frame (generator, acceptor, transducer) over the unchanged
// model, timed from outside the program around calls into its exported
// functions. See README.md for the workloads, the metrics and the layer
// predictions.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//	perfbench --selftest
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Untraced runs (--trace 0) report
// the end-to-end metrics, traced runs the per-layer metrics and write their
// spans to .bench_build/spans-<workload>.json.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"sdr/internal/campaign"
)

// defaultSeed is the seed whose workload digests are recorded in
// digests.json.
const defaultSeed = 1

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last set-up instance is the one measured.
const setupRepeats = 5

//go:embed digests.json
var digestsJSON []byte

// config is the load and size setting of one run.
type config struct {
	seed    int64
	seconds float64
	tiny    bool
	nproc   int
}

// window is what one untraced measurement produced: ops completed in wall
// time, the output checks, and the op times of every repetition of the
// window's op sequence. Each workload repeats one sequence of ops for the
// whole window: a pass over the same cells, or the same job shapes, with
// fresh seeds, or one engine run from the same start.
type window struct {
	ops       int
	wall      time.Duration
	attempted int
	failed    int
	digest    string
	// reps[i] holds op i's time in milliseconds at every repetition of the
	// sequence. The first latencyFrom ops count towards throughput but give
	// no latency sample.
	reps        [][]float64
	latencyFrom int
}

// addRep records one repetition's op times. A repetition of another length
// than the first failed part-way; its ops are counted failed elsewhere and
// its times are left out.
func (w *window) addRep(ms []float64) {
	if w.reps == nil {
		w.reps = make([][]float64, len(ms))
	}
	if len(ms) != len(w.reps) {
		return
	}
	for i, v := range ms {
		w.reps[i] = append(w.reps[i], v)
	}
}

// repetitions is how many times the window repeated its op sequence.
func (w window) repetitions() int {
	if len(w.reps) == 0 {
		return 0
	}
	return len(w.reps[0])
}

// medians returns the window's figures from the median time of each op of
// the sequence over its repetitions: the throughput is the sequence's ops
// over the sum of those medians, and the latency samples are the medians.
// Other tenants of a shared host slow the program for seconds at a time;
// the repetitions of one op are spread over the whole window, so its
// median is the time it takes while the host runs at its typical speed in
// that window, and a burst that slows part of one repetition moves no
// median.
func (w window) medians() (rate float64, latencyMS []float64) {
	var total float64
	for i, times := range w.reps {
		t := median(times)
		total += t
		if i >= w.latencyFrom {
			latencyMS = append(latencyMS, t)
		}
	}
	if total <= 0 {
		return 0, nil
	}
	return float64(len(w.reps)) / (total / 1e3), latencyMS
}

// workload is one experiment frame. setup builds everything the timed
// window needs; measure runs the untraced window; trace runs the traced
// measurement and returns the per-layer metrics; close releases the set-up.
type workload interface {
	setup() error
	measure(seconds float64) window
	trace(seconds float64, tr *tracer) (map[string]float64, window)
	context() map[string]any
	close()
}

var workloads = map[string]func(config) workload{
	"campaign-churn": newCampaignChurn,
	"torus-sharded":  newTorusSharded,
	"serve-jobs":     newServeJobs,
}

func main() {
	name := flag.String("workload", "", "workload name (campaign-churn, torus-sharded, serve-jobs)")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 15, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	tiny := flag.Bool("tiny", false, "tiny sizes: a check that finishes in seconds, not a measurement")
	corrupt := flag.Bool("corrupt-digest", false, "compare against a deliberately wrong digest (self-test)")
	selftest := flag.Bool("selftest", false, "run the benchmark's self-tests and exit")
	flag.Parse()

	if *selftest {
		if err := runSelftest(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: selftest passed")
		return
	}
	cfg := config{seed: *seed, seconds: *seconds, tiny: *tiny, nproc: runtime.GOMAXPROCS(0)}
	res, err := run(*name, cfg, *traceFlag == 1, *corrupt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// spec is the part of BENCHMARK.json the benchmark checks its output
// against.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec() (spec, error) {
	var s spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return s, nil
}

// run executes one workload run and assembles its result line. The context
// line (fingerprint, load settings, digests) is printed before it.
func run(name string, cfg config, traced, corrupt bool) (result, error) {
	bench, err := loadSpec()
	if err != nil {
		return result{}, err
	}
	if err := sameMetrics(bench.EndToEnd, endToEnd); err != nil {
		return result{}, fmt.Errorf("end_to_end: %w", err)
	}
	if err := sameMetrics(bench.PerLayer, perLayer); err != nil {
		return result{}, fmt.Errorf("per_layer: %w", err)
	}
	mk, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}

	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		cand := mk(cfg)
		if err := cand.setup(); err != nil {
			cand.close()
			return result{}, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		w = cand
	}
	defer w.close()

	got := map[string]float64{}
	var win window
	var latencySamples int
	var units []specMetric
	if traced {
		tr := newTracer()
		got, win = w.trace(cfg.seconds, tr)
		units = perLayer
		if err := tr.write(filepath.Join(".bench_build", "spans-"+name+".json")); err != nil {
			return result{}, err
		}
	} else {
		win = w.measure(cfg.seconds)
		units = endToEnd
		got["setup_s"] = median(setups)
		got["peak_rss_mb"] = peakRSSMB()
		// A run whose ops could not complete has no rate or latency; it
		// reports 0 with every op failed.
		got["ops_per_s"], got["op_p50_ms"], got["op_p90_ms"] = 0, 0, 0
		if rate, lat := win.medians(); win.ops > 0 && len(lat) > 0 {
			got["ops_per_s"] = rate
			got["op_p50_ms"] = quantile(lat, 0.5)
			got["op_p90_ms"] = quantile(lat, 0.9)
			latencySamples = len(lat)
		}
	}

	expected := expectedDigest(name, cfg)
	if corrupt {
		expected = corruptDigest(expected, win.digest)
	}
	digestOK := expected == "" || expected == win.digest
	res := result{Correct: digestOK && win.failed == 0, Attempted: win.attempted, Failed: win.failed,
		Metrics: make(map[string]metricValue, len(units))}
	if !digestOK {
		res.Failed = res.Attempted
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation attempted")
	}
	for _, m := range units {
		v, ok := got[m.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %q of BENCHMARK.json was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(got) != len(units) {
		return result{}, fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d", len(got), len(units))
	}

	ctx := map[string]any{
		"workload":        name,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           traced,
		"tiny":            cfg.tiny,
		"fingerprint":     campaign.Fingerprint(),
		"digest":          win.digest,
		"expected_digest": expected,
		"setup_s_samples": setups,
		"window_wall_s":   win.wall.Seconds(),
		"window_ops":      win.ops,
		"latency_samples": latencySamples,
		"repetitions":     win.repetitions(),
	}
	for k, v := range w.context() {
		ctx[k] = v
	}
	line, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		return result{}, fmt.Errorf("encode context: %w", err)
	}
	fmt.Println(string(line))
	return res, nil
}

// endToEnd and perLayer are the metrics the benchmark prints, with their
// units; BENCHMARK.json must list exactly these.
var endToEnd = []specMetric{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"}, {"peak_rss_mb", "MB"},
}

var perLayer = []specMetric{
	{"graph.build_ms", "ms"}, {"graph.neighbor_ns", "ns"},
	{"scenario.resolve_ms_p50", "ms"}, {"scenario.resolve_share", "frac"},
	{"scenario.report_ms_p50", "ms"}, {"scenario.report_share", "frac"},
	{"sim.run_ms_p50", "ms"}, {"sim.run_share", "frac"}, {"sim.ns_per_move", "ns"}, {"sim.alloc_bytes_per_move", "B"},
	{"sim.enabled_ns", "ns"}, {"sim.select_ns", "ns"},
	{"sim.phase_select_share", "frac"}, {"sim.phase_execute_share", "frac"}, {"sim.phase_guard_eval_share", "frac"},
	{"sim.phase_account_share", "frac"}, {"sim.phase_merge_share", "frac"}, {"sim.phase_boundary_exchange_share", "frac"},
	{"sim.shard_speedup", "x"}, {"sim.shard_imbalance", "x"},
	{"sim.memo_hit_rate", "frac"}, {"sim.memo_lookups", "count"},
	{"churn.events", "count"}, {"churn.inject_us", "us"}, {"churn.recovery_steps_mean", "steps"}, {"churn.availability", "frac"},
	{"campaign.pool_utilization", "frac"}, {"campaign.overhead_us_per_trial", "us"},
	{"campaign.marshal_us", "us"}, {"campaign.record_bytes", "B"},
	{"server.submit_ms_p50", "ms"}, {"server.first_line_ms_p50", "ms"}, {"server.stream_ms_p50", "ms"},
	{"server.job_run_ms_mean", "ms"}, {"server.dedup_hit_frac", "frac"}, {"server.rejected", "count"},
	{"process.gc_cpu_frac", "frac"}, {"tracing_overhead_frac", "frac"}, {"trace.coverage", "frac"},
}

// newLayerMetrics returns every per-layer metric at 0: a layer a workload
// does not exercise reports 0 (the flat prediction of README.md).
func newLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, x := range perLayer {
		m[x.Name] = 0
	}
	return m
}

// sameMetrics reports how the metric list of BENCHMARK.json differs from
// the one the benchmark prints.
func sameMetrics(listed, printed []specMetric) error {
	want := make(map[string]string, len(printed))
	for _, m := range printed {
		want[m.Name] = m.Unit
	}
	if len(listed) != len(printed) {
		return fmt.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(listed), len(printed))
	}
	for _, m := range listed {
		u, ok := want[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %q, which the benchmark does not print", m.Name)
		}
		if u != m.Unit {
			return fmt.Errorf("metric %q: BENCHMARK.json unit %q, printed unit %q", m.Name, m.Unit, u)
		}
	}
	return nil
}

var stderr = os.Stderr

// expectedDigest returns the recorded digest of the workload at the default
// seed, or "" when the run uses another seed (its digest is then only
// checked for agreement between repeated passes within the run).
func expectedDigest(name string, cfg config) string {
	if cfg.seed != defaultSeed {
		return ""
	}
	var recorded map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		return "unreadable digests.json"
	}
	size := "full"
	if cfg.tiny {
		size = "tiny"
	}
	return recorded[size][name]
}

// corruptDigest returns a digest that differs from both the recorded and
// the computed one, for the self-test of the failure accounting.
func corruptDigest(expected, computed string) string {
	h := sha256.Sum256([]byte("corrupt:" + expected + computed))
	return hex.EncodeToString(h[:])
}

// digestOf hashes a sequence of digests in order.
func digestOf(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB, or 0
// when /proc/self/status cannot be read.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSample reads the process's cumulative GC and total CPU seconds and its
// cumulative heap allocation in bytes.
type cpuSample struct{ gc, total, allocBytes float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return cpuSample{gc: val(0), total: val(1), allocBytes: val(2)}
}

// gcFrac is the share of CPU time spent in the garbage collector between
// two samples.
func gcFrac(a, b cpuSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}
