package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"sdr/internal/checker"
	"sdr/internal/sim"
)

// ErrUnverifiable reports a Spec whose algorithm entry defines no legitimacy
// predicate, so there is no convergence property to certify.
var ErrUnverifiable = errors.New("scenario: spec has no legitimacy predicate to verify against")

// VerifySeedStride separates the derived seeds of the extra starting
// configurations a verification explores from. A large prime distinct from
// TrialSeedStride keeps the start streams disjoint from sweep-trial streams.
const VerifySeedStride = 7_368_787

// VerifyOptions bounds the exhaustive certification of a resolved Spec.
type VerifyOptions struct {
	// Starts is the number of seeded starting configurations the exploration
	// grows from (≤ 0 means 1). The first start is the run's own Start;
	// further starts re-draw the Spec's fault model from seeds derived with
	// VerifySeedStride, so a verification is as reproducible as the run.
	Starts int
	// MaxConfigurations caps the explored set (0 means the checker default).
	MaxConfigurations int
	// MaxSelectionSize caps the daemon selections branched on. 0 explores
	// every non-empty subset of the enabled set — exact for the fully
	// distributed unfair daemon, but exponential in the enabled-set size; a
	// cap k certifies convergence under every daemon activating at most k
	// processes per step (k = 1 is the central daemon).
	MaxSelectionSize int
	// Workers bounds the exploration's worker pool (≤ 1 explores
	// sequentially); verdicts are bit-identical for every value. With
	// Workers > 1 rule guards and the legitimacy predicate are evaluated
	// concurrently; every registry entry satisfies the required purity.
	Workers int
}

// VerifyStarts builds the count seeded starting configurations a
// verification of this run explores from: the run's own Start followed by
// fresh draws of the Spec's fault model under derived seeds.
func (r *Run) VerifyStarts(count int) ([]*sim.Configuration, error) {
	if count < 1 {
		count = 1
	}
	fault, err := FaultByName(r.Spec.Fault)
	if err != nil {
		return nil, err
	}
	starts := make([]*sim.Configuration, 0, count)
	starts = append(starts, r.Start)
	for i := 1; i < count; i++ {
		rng := rand.New(rand.NewSource(r.Spec.Seed + int64(i)*VerifySeedStride))
		start, err := fault.Build(r.Alg, r.Inner, r.Net, rng)
		if err != nil {
			return nil, fmt.Errorf("scenario: verify start %d: fault %q: %w", i, r.Spec.Fault, err)
		}
		starts = append(starts, start)
	}
	return starts, nil
}

// Verify exhaustively explores every configuration reachable from the run's
// seeded starts under every daemon choice (capped by MaxSelectionSize) and
// certifies convergence to the entry's legitimate set: no reachable cycle of
// illegitimate configurations and no illegitimate terminal configuration. At
// every explored configuration it also checks that the engine's decision
// path picks the rule the paper's Guards enable (see checker.Explore), so a
// certified cell covers the rule choices the engine runs.
// The returned report carries the coverage counters even when verification
// fails; a nil error together with Report.Complete means the property is
// certified on the whole reachable space.
//
// This is the model-checking counterpart of Execute: where Execute samples
// one daemon schedule, Verify branches on all of them, which is what the
// paper's convergence theorems (Theorems 5–7 for U ∘ SDR, Theorems 12–14 for
// FGA ∘ SDR) quantify over. It is only tractable for small n.
func (r *Run) Verify(opts VerifyOptions) (checker.ExploreReport, error) {
	if r.Legitimate == nil {
		return checker.ExploreReport{}, fmt.Errorf("%w: algorithm %q", ErrUnverifiable, r.Spec.Algorithm)
	}
	starts, err := r.VerifyStarts(opts.Starts)
	if err != nil {
		return checker.ExploreReport{}, err
	}
	// Terminal configurations must themselves be legitimate (for SDR
	// compositions, terminal ⇔ normal, Theorem 1): Explore refutes an
	// illegitimate one as soon as it expands it, so truncated explorations
	// check them too.
	return checker.Explore(r.Net, r.Alg, starts, checker.ExploreOptions{
		MaxConfigurations: opts.MaxConfigurations,
		MaxSelectionSize:  opts.MaxSelectionSize,
		Legitimate:        sim.AllProcesses(r.Net, r.Legitimate),
		Workers:           opts.Workers,
	})
}
