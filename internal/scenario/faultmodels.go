package scenario

import (
	"math/rand"

	"sdr/internal/core"
	"sdr/internal/faults"
	"sdr/internal/sim"
)

// FaultEntry is one named fault model of the registry: a recipe producing
// the (possibly corrupted) starting configuration of a run.
type FaultEntry struct {
	// Name is the registry key.
	Name string
	// Description is a one-line summary for -list output.
	Description string
	// ComposedOnly marks recipes that corrupt the reset machinery and hence
	// only apply to compositions I ∘ SDR.
	ComposedOnly bool
	// Build produces the starting configuration. inner is nil for
	// non-composed algorithms. Builders that draw from an enumerated state
	// space fail when the algorithm does not enumerate it.
	Build func(alg sim.Algorithm, inner core.Resettable, net *sim.Network, rng *rand.Rand) (*sim.Configuration, error)
}

var faultRegistry = newRegistry[FaultEntry]("fault model")

// RegisterFault adds an entry to the fault-model registry. It panics on
// duplicate names; call it from init functions or test setup only.
func RegisterFault(e FaultEntry) { faultRegistry.add(e.Name, e) }

// FaultModels returns the registered fault-model names in registration order.
func FaultModels() []string { return faultRegistry.list() }

// FaultByName returns the entry with the given name.
func FaultByName(name string) (FaultEntry, error) { return faultRegistry.lookup(name) }

func init() {
	RegisterFault(FaultEntry{
		Name:        "none",
		Description: "no fault: start from the algorithm's pre-defined initial configuration γ_init",
		Build: func(alg sim.Algorithm, _ core.Resettable, net *sim.Network, _ *rand.Rand) (*sim.Configuration, error) {
			return sim.InitialConfiguration(alg, net), nil
		},
	})
	RegisterFault(FaultEntry{
		Name:        "random-all",
		Description: "every variable of every process drawn uniformly from the state space",
		Build: func(alg sim.Algorithm, _ core.Resettable, net *sim.Network, rng *rand.Rand) (*sim.Configuration, error) {
			return faults.RandomConfiguration(alg, net, rng)
		},
	})
	RegisterFault(FaultEntry{
		Name:         "inner-only",
		Description:  "clean reset machinery, half of the application states corrupted",
		ComposedOnly: true,
		Build: func(alg sim.Algorithm, inner core.Resettable, net *sim.Network, rng *rand.Rand) (*sim.Configuration, error) {
			return faults.CorruptedInner(inner, net, sim.InitialConfiguration(alg, net), 0.5, rng)
		},
	})
	RegisterFault(FaultEntry{
		Name:         "fake-wave",
		Description:  "40% of the processes put into an arbitrary phase of a non-existent reset",
		ComposedOnly: true,
		Build: func(alg sim.Algorithm, _ core.Resettable, net *sim.Network, rng *rand.Rand) (*sim.Configuration, error) {
			return faults.FakeResetWave(net, sim.InitialConfiguration(alg, net), 0.4, net.N(), rng), nil
		},
	})
	RegisterFault(FaultEntry{
		Name:        "half-corrupt",
		Description: "half of the processes get uniformly random full states",
		Build: func(alg sim.Algorithm, _ core.Resettable, net *sim.Network, rng *rand.Rand) (*sim.Configuration, error) {
			return faults.CorruptFraction(alg, net, sim.InitialConfiguration(alg, net), 0.5, rng)
		},
	})
}
