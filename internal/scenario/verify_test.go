package scenario

import (
	"errors"
	"testing"
)

func TestVerifyCertifiesUnisonRing(t *testing.T) {
	run := mustResolve(t, Spec{
		Algorithm: "unison",
		Topology:  "ring",
		N:         4,
		Daemon:    "synchronous",
		Fault:     "random-all",
		Seed:      3,
	})
	report, err := run.Verify(VerifyOptions{Starts: 3, MaxSelectionSize: 1, Workers: 2})
	if err != nil {
		t.Fatalf("U∘SDR on a 4-ring must be certified: %v", err)
	}
	if !report.Complete {
		t.Error("the reachable space of a 4-ring must be covered completely")
	}
	if report.Configurations == 0 || report.LegitimateConfigurations == 0 {
		t.Errorf("implausible coverage: %+v", report)
	}
}

func TestVerifyRequiresLegitimacyPredicate(t *testing.T) {
	// Standalone entries define no legitimate set, so there is no
	// convergence property to certify.
	run := mustResolve(t, Spec{
		Algorithm: "unison-standalone",
		Topology:  "ring",
		N:         4,
		Daemon:    "synchronous",
		Fault:     "none",
		Seed:      1,
	})
	if _, err := run.Verify(VerifyOptions{}); !errors.Is(err, ErrUnverifiable) {
		t.Errorf("expected ErrUnverifiable, got %v", err)
	}
}

func TestVerifyStartsSeededAndReproducible(t *testing.T) {
	spec := Spec{
		Algorithm: "dominating-set",
		Topology:  "ring",
		N:         5,
		Daemon:    "synchronous",
		Fault:     "random-all",
		Seed:      7,
	}
	a := mustResolve(t, spec)
	b := mustResolve(t, spec)
	sa, err := a.VerifyStarts(5)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.VerifyStarts(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != 5 || len(sb) != 5 {
		t.Fatalf("expected 5 starts, got %d and %d", len(sa), len(sb))
	}
	if !sa[0].Equal(a.Start) {
		t.Error("the first verify start must be the run's own Start")
	}
	for i := range sa {
		if !sa[i].Equal(sb[i]) {
			t.Errorf("start %d not reproducible:\n  %s\n  %s", i, sa[i], sb[i])
		}
	}
	// The derived starts should actually differ from each other (the fault
	// model draws fresh corruption per seed).
	distinct := false
	for i := 1; i < len(sa); i++ {
		if !sa[i].Equal(sa[0]) {
			distinct = true
		}
	}
	if !distinct {
		t.Error("derived starts are all identical; the seed derivation is broken")
	}
}
