package main

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"sdr/internal/obs"
	"sdr/internal/scenario"
	"sdr/internal/sim"
)

// torusWorkload runs synchronous U∘SDR on a side×side torus from a
// random-all start with a fixed step budget (it does not stop at
// legitimacy), sharded over nproc shards. The torus has about 1.5*10^5 nodes: large
// enough for CSR iteration at scale, small enough that a window holds well
// over 10 runs. The synchronous daemon is exact under sharding, so every
// run, at every shard count, must end in the same configuration. An op is
// one engine step; its time runs from the previous step hook (the run's
// start for the first step) to its own. Every step of a run counts towards
// throughput, but only steps after the first transientSteps give latency
// samples: the first step also carries the run's start-up sweep, and the
// next two cost a third to two thirds less than every later one, so mixing
// them in would put the median between two groups of steps.
type torusWorkload struct {
	cfg       config
	side      int
	steps     int
	run       *scenario.Run
	resolveMS float64
}

func newTorusSharded(cfg config) workload {
	w := &torusWorkload{cfg: cfg, side: 384, steps: 16}
	if cfg.tiny {
		w.side, w.steps = 32, 6
	}
	return w
}

func (w *torusWorkload) spec() scenario.Spec {
	return scenario.Spec{Algorithm: "unison", Topology: "torus", N: w.side * w.side,
		Daemon: "synchronous", Fault: "random-all", Seed: w.cfg.seed}
}

// setup resolves the torus: topology, algorithm and the random-all start.
func (w *torusWorkload) setup() error {
	t0 := time.Now()
	run, err := w.spec().Resolve()
	if err != nil {
		return err
	}
	w.resolveMS = float64(time.Since(t0)) / 1e6
	w.run = run
	return nil
}

func (w *torusWorkload) close() { w.run = nil }

func (w *torusWorkload) context() map[string]any {
	return map[string]any{"shards": w.cfg.nproc, "n": w.side * w.side, "steps_per_run": w.steps,
		"clients": 1, "parallel": 1, "op": "step"}
}

// transientSteps is how many steps at the start of each run give no
// latency sample.
const transientSteps = 3

// torusRun is one fixed-budget engine run.
type torusRun struct {
	wall     time.Duration
	steps    int
	moves    int
	stepMS   []float64
	checksum string
}

// once runs the engine once from the resolved start. It collects the
// previous run's garbage first, untimed, so that every run starts from the
// same heap and meets its garbage collections at the same steps.
func (w *torusWorkload) once(shards int) torusRun {
	runtime.GC()
	var stepEnds []time.Time
	t0 := time.Now()
	res := w.run.Engine.Run(w.run.Start, sim.WithMaxSteps(w.steps), sim.WithShards(shards),
		sim.WithStepHook(func(sim.StepInfo) { stepEnds = append(stepEnds, time.Now()) }))
	r := torusRun{wall: time.Since(t0), steps: res.Steps, moves: res.Moves}
	prev := t0
	for _, end := range stepEnds {
		r.stepMS = append(r.stepMS, float64(end.Sub(prev))/1e6)
		prev = end
	}
	r.checksum = checksum(res.Final)
	return r
}

// checksum is an FNV-64a hash of the final per-process state keys.
func checksum(c *sim.Configuration) string {
	h := fnv.New64a()
	var buf []byte
	for u := 0; u < c.N(); u++ {
		buf = sim.AppendStateKey(buf[:0], c.State(u))
		buf = append(buf, 0)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measure runs whole fixed-budget runs until the window has elapsed; each
// run is a repetition of the window's op sequence, and the window's wall
// time is the time spent inside Engine.Run.
func (w *torusWorkload) measure(seconds float64) window {
	var win window
	for win.wall.Seconds() < seconds || win.ops == 0 {
		w.account(&win, w.once(w.cfg.nproc))
	}
	return win
}

func (w *torusWorkload) account(win *window, r torusRun) {
	if win.digest == "" {
		win.digest = r.checksum
	}
	win.ops += r.steps
	win.wall += r.wall
	win.latencyFrom = transientSteps
	win.addRep(r.stepMS)
	win.attempted += r.steps
	if r.checksum != win.digest || r.steps != w.steps {
		win.failed += r.steps
	}
}

// trace times untraced sharded runs, one traced run (phase profile of every
// step, spans), one sequential run (shard speedup, same checksum) and the
// per-call costs of the CSR sweep, guard evaluation and daemon selection on
// the torus.
func (w *torusWorkload) trace(_ float64, tr *tracer) (map[string]float64, window) {
	m := newLayerMetrics()
	var win window

	cpu0 := readCPU()
	var untraced []float64
	var untracedWall time.Duration
	var moves int
	for i := 0; i < 3; i++ {
		r := w.once(w.cfg.nproc)
		w.account(&win, r)
		untraced = append(untraced, float64(r.wall))
		untracedWall += r.wall
		moves += r.moves
	}
	cpu1 := readCPU()
	m["process.gc_cpu_frac"] = gcFrac(cpu0, cpu1)
	m["sim.run_ms_p50"] = median(untraced) / 1e6
	m["sim.ns_per_move"] = float64(untracedWall) / float64(moves)
	m["sim.alloc_bytes_per_move"] = (cpu1.allocBytes - cpu0.allocBytes) / float64(moves)

	// Traced run: spans around the run and the checksum, phase profile of
	// every step.
	prof := obs.NewPhaseProfiler(1)
	runtime.GC()
	root := tr.begin("run", 0, -1)
	s := tr.begin("sim.run", 0, root)
	t0 := time.Now()
	res := w.run.Engine.Run(w.run.Start, sim.WithMaxSteps(w.steps), sim.WithShards(w.cfg.nproc), sim.WithProfiler(prof))
	tracedWall := time.Since(t0)
	tr.end(s)
	s = tr.begin("checksum", 0, root)
	sum := checksum(res.Final)
	tr.end(s)
	tr.end(root)
	w.account(&win, torusRun{wall: tracedWall, steps: res.Steps, moves: res.Moves, checksum: sum})
	res = sim.Result{}
	m["tracing_overhead_frac"] = tracedWall.Seconds()/(untracedWall.Seconds()/3) - 1
	ep := prof.Profile()
	for _, ph := range ep.Phases {
		if ep.StepWall > 0 {
			m["sim.phase_"+ph.Phase+"_share"] = float64(ph.Total) / float64(ep.StepWall)
		}
	}
	var maxExec, sumExec float64
	for _, sb := range ep.Shards {
		for _, ph := range sb.Phases {
			if ph.Phase == "execute" {
				maxExec = max(maxExec, float64(ph.Total))
				sumExec += float64(ph.Total)
			}
		}
	}
	if len(ep.Shards) > 0 && sumExec > 0 {
		m["sim.shard_imbalance"] = maxExec / (sumExec / float64(len(ep.Shards)))
	}
	self, rootTime, coverage := tr.layerTimes()
	if rootTime > 0 {
		m["sim.run_share"] = float64(self["sim.run"]) / float64(rootTime)
	}
	m["trace.coverage"] = coverage

	// The sequential engine must reproduce the sharded checksum.
	seq := w.once(1)
	if seq.checksum != win.digest {
		seq.checksum = "shard-mismatch:" + seq.checksum
	}
	w.account(&win, seq)
	m["sim.shard_speedup"] = float64(seq.wall) / (float64(untracedWall) / 3)

	m["scenario.resolve_ms_p50"] = w.resolveMS
	entry, err := scenario.TopologyByName("torus")
	if err != nil {
		return m, failAll(win.attempted, err)
	}
	t0 = time.Now()
	entry.Build(w.side*w.side, scenario.Params{}, nil)
	m["graph.build_ms"] = float64(time.Since(t0)) / 1e6
	microLayers(m, []trialOut{{start: w.run.Start, engine: w.run.Engine, net: w.run.Net, daemon: w.run.Daemon}})
	if win.failed > 0 {
		fmt.Fprintln(stderr, "perfbench: torus checksum mismatch")
	}
	return m, win
}
