package scenario

import (
	"reflect"
	"strings"
	"testing"

	"sdr/internal/churn"
)

func TestChurnRegistryEntriesAreComplete(t *testing.T) {
	names := ChurnSchedules()
	if len(names) == 0 {
		t.Fatal("no churn schedules registered")
	}
	for _, name := range names {
		entry, err := ChurnByName(name)
		if err != nil {
			t.Fatalf("ChurnByName(%q): %v", name, err)
		}
		if entry.Description == "" {
			t.Errorf("churn schedule %q has no description", name)
		}
		if err := entry.Schedule.Validate(); err != nil {
			t.Errorf("churn schedule %q is invalid: %v", name, err)
		}
	}
}

func TestResolveChurnFallsBackToGrammar(t *testing.T) {
	sched, err := ResolveChurn("periodic:events=2,every=50")
	if err != nil {
		t.Fatalf("grammar fallback: %v", err)
	}
	if sched.Events != 2 || sched.Every != 50 {
		t.Errorf("parsed schedule %+v", sched)
	}
	if _, err := ResolveChurn("no-such-schedule"); err == nil {
		t.Error("unresolvable churn name must error")
	} else if !strings.Contains(err.Error(), "periodic-corrupt") {
		t.Errorf("the error should list the registered schedules, got: %v", err)
	}
}

func TestChurnRunRecordsAndRecoversEvents(t *testing.T) {
	spec := Spec{
		Algorithm: "unison",
		Topology:  "ring",
		N:         8,
		Daemon:    "distributed-random",
		Fault:     "random-all",
		Churn:     "periodic:events=3,every=100,kinds=corrupt-fraction+node-crash+edge-drop",
		Seed:      11,
		MaxSteps:  300_000,
	}
	run, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if run.Churn == nil {
		t.Fatal("resolved run has no churn injector")
	}
	res := run.Execute()
	if len(res.Events) != 3 {
		t.Fatalf("recorded %d events, want 3: %+v", len(res.Events), res.Events)
	}
	for i, ev := range res.Events {
		if !ev.Recovered {
			t.Errorf("event %d (%s at step %d) never recovered", i, ev.Label, ev.Step)
		}
		if ev.RecoverySteps < 0 || ev.RecoveryMoves < 0 || ev.RecoveryRounds < 0 {
			t.Errorf("event %d has negative recovery costs: %+v", i, ev)
		}
	}
	if !res.LegitimateReached {
		t.Error("churn run never stabilized at all")
	}
	if res.LegitimateSteps == 0 || res.Availability() <= 0 {
		t.Errorf("availability not tracked: %d legitimate of %d steps", res.LegitimateSteps, res.Steps)
	}
}

func TestChurnRunsAreDeterministic(t *testing.T) {
	spec := Spec{
		Algorithm: "unison",
		Topology:  "torus",
		N:         9,
		Daemon:    "distributed-random",
		Fault:     "half-corrupt",
		Churn:     "poisson-mixed",
		Seed:      5,
		MaxSteps:  300_000,
	}
	execute := func() ([]int, []string, int, int) {
		run, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		times := run.Churn.Times()
		res := run.Execute()
		labels := make([]string, len(res.Events))
		for i, ev := range res.Events {
			labels[i] = ev.Label
		}
		return times, labels, res.Steps, res.Moves
	}
	t1, l1, s1, m1 := execute()
	t2, l2, s2, m2 := execute()
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(l1, l2) || s1 != s2 || m1 != m2 {
		t.Errorf("same spec produced different churn runs:\n(%v,%v,%d,%d)\n(%v,%v,%d,%d)",
			t1, l1, s1, m1, t2, l2, s2, m2)
	}
}

func TestChurnRequirementsSurfaceAtResolve(t *testing.T) {
	spec := Spec{
		Algorithm: "unison-standalone",
		Topology:  "ring",
		N:         6,
		Daemon:    "synchronous",
		Churn:     "periodic:kinds=fake-reset-wave",
		Seed:      1,
	}
	if _, err := spec.Resolve(); err == nil {
		t.Error("fake-reset-wave churn on a non-composed algorithm must fail to resolve")
	}
}

func TestPartitionHealPresetRuns(t *testing.T) {
	spec := Spec{
		Algorithm: "unison",
		Topology:  "ring",
		N:         8,
		Daemon:    "distributed-random",
		Fault:     "none",
		Churn:     "partition-heal",
		Seed:      3,
		MaxSteps:  500_000,
	}
	run, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res := run.Execute()
	if len(res.Events) != 4 {
		t.Fatalf("recorded %d events, want 4", len(res.Events))
	}
	if got := []string{res.Events[0].Label, res.Events[1].Label}; got[0] != string(churn.Partition) || got[1] != string(churn.Heal) {
		t.Errorf("event labels %v, want partition then heal", got)
	}
	// The run must end on a healed, connected network.
	if !run.Net.Graph().Connected() {
		t.Error("network still partitioned after the final heal")
	}
	if last := res.Events[len(res.Events)-1]; !last.Recovered {
		t.Errorf("final heal never recovered: %+v", last)
	}
}
