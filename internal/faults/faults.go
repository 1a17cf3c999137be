// Package faults builds the corrupted configurations from which
// self-stabilization is exercised: uniformly random configurations over the
// whole state space, partial corruptions of a correct configuration, and
// targeted corruptions aimed at the reset machinery (fake broadcast/feedback
// waves, inconsistent distance values).
//
// Self-stabilization quantifies over every possible initial configuration;
// these generators sample that space for the experiments and tests. Builders
// that draw from an algorithm's enumerated state space return an error when
// the algorithm does not enumerate it; the scenario registry's fault models
// are built from them and surface such errors to the user.
package faults

import (
	"fmt"
	"math/rand"

	"sdr/internal/core"
	"sdr/internal/sim"
)

// sampler draws uniform states from an algorithm's enumerated space: one
// Intn over StateCount and one StateAt per draw, so the product-shaped
// composed space is never materialized.
type sampler struct {
	name string
	enum sim.Enumerable
}

// newSampler builds a sampler, or an error when the algorithm does not
// (usefully) enumerate: the compositions implement sim.Enumerable yet report
// an empty space for non-enumerable inners, so the space of process 0 is
// probed too.
func newSampler(alg sim.Algorithm, net *sim.Network) (sampler, error) {
	enum, ok := alg.(sim.Enumerable)
	if !ok || enum.StateCount(0, net) == 0 {
		return sampler{}, fmt.Errorf("faults: algorithm %s does not enumerate its states", alg.Name())
	}
	return sampler{name: alg.Name(), enum: enum}, nil
}

// draw returns a state of process u drawn uniformly from its enumerated
// space.
func (s sampler) draw(u int, net *sim.Network, rng *rand.Rand) (sim.State, error) {
	n := s.enum.StateCount(u, net)
	if n == 0 {
		return nil, fmt.Errorf("faults: algorithm %s enumerated no states for process %d", s.name, u)
	}
	return s.enum.StateAt(u, net, rng.Intn(n)), nil
}

// RandomConfiguration returns a configuration in which every process state
// is drawn uniformly from the algorithm's enumerated state space. It returns
// an error when the algorithm does not implement sim.Enumerable (or
// enumerates an empty space).
func RandomConfiguration(alg sim.Algorithm, net *sim.Network, rng *rand.Rand) (*sim.Configuration, error) {
	smp, err := newSampler(alg, net)
	if err != nil {
		return nil, err
	}
	states := make([]sim.State, net.N())
	for u := range states {
		if states[u], err = smp.draw(u, net, rng); err != nil {
			return nil, err
		}
	}
	return sim.NewConfiguration(states), nil
}

// CorruptFraction returns a copy of base in which each process state is
// replaced, with probability fraction, by a uniformly random state from the
// algorithm's state space. fraction is clamped to [0, 1]. It returns an
// error when the algorithm does not enumerate its states.
func CorruptFraction(alg sim.Algorithm, net *sim.Network, base *sim.Configuration, fraction float64, rng *rand.Rand) (*sim.Configuration, error) {
	smp, err := newSampler(alg, net)
	if err != nil {
		return nil, err
	}
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	c := base.Clone()
	for u := 0; u < net.N(); u++ {
		if rng.Float64() >= fraction {
			continue
		}
		st, err := smp.draw(u, net, rng)
		if err != nil {
			return nil, err
		}
		c.SetState(u, st)
	}
	return c, nil
}

// CorruptedInner returns a copy of base (a configuration of a composition
// I ∘ SDR) in which the inner states of a random subset of processes are
// corrupted while the SDR variables are left clean. This models the typical
// post-fault situation of the paper's "typical execution": the application
// state is inconsistent but no reset is running yet. It returns an error
// when the inner algorithm does not enumerate its states.
func CorruptedInner(inner core.Resettable, net *sim.Network, base *sim.Configuration, fraction float64, rng *rand.Rand) (*sim.Configuration, error) {
	enum, ok := inner.(core.InnerEnumerable)
	if !ok || enum.InnerStateCount(0, net) == 0 {
		return nil, fmt.Errorf("faults: inner algorithm %s does not enumerate its states", inner.Name())
	}
	c := base.Clone()
	for u := 0; u < net.N(); u++ {
		if rng.Float64() >= fraction {
			continue
		}
		in := enum.InnerStateAt(u, net, rng.Intn(enum.InnerStateCount(u, net)))
		c.SetState(u, core.WithInner(c.State(u), in))
	}
	return c, nil
}

// FakeResetWave returns a copy of base (a configuration of I ∘ SDR) in which
// a random subset of processes is put into an arbitrary phase of a
// non-existent reset: random status in {RB, RF} and random distance in
// [0, maxDistance]. Inner states are left untouched, so the resulting
// configuration typically violates P_R2 and exercises the SDR-level error
// handling (Section 3.4). It has no failure mode and hence no error return.
func FakeResetWave(net *sim.Network, base *sim.Configuration, fraction float64, maxDistance int, rng *rand.Rand) *sim.Configuration {
	if maxDistance < 0 {
		maxDistance = 0
	}
	c := base.Clone()
	statuses := []core.Status{core.StatusRB, core.StatusRF}
	for u := 0; u < net.N(); u++ {
		if rng.Float64() >= fraction {
			continue
		}
		sdr := core.SDRState{
			St: statuses[rng.Intn(len(statuses))],
			D:  rng.Intn(maxDistance + 1),
		}
		c.SetState(u, core.WithSDR(c.State(u), sdr))
	}
	return c
}
