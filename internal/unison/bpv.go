package unison

import (
	"fmt"
	"strconv"

	"sdr/internal/graph"
	"sdr/internal/sim"
)

// BPV is the baseline self-stabilizing asynchronous unison in the style of
// Boulinier, Petit and Villain (PODC 2004), the algorithm the paper compares
// U ∘ SDR against in Section 5.3.
//
// Each process holds an extended clock value in the "tailed ring"
// χ = {-Alpha, ..., -1} ∪ {0, ..., K-1}: negative values form the reset tail
// and non-negative values the unison ring. Two actions drive the protocol:
//
//   - the normal action NA increments the clock (φ(x) = x+1, wrapping K-1 to
//     0) when the process is a local minimum: every neighbour is on time or
//     one increment ahead (ring) / not behind (tail), and a process at the
//     end of the tail only enters the ring when all its neighbours are
//     around 0;
//   - the reset action RA sends a ring process whose neighbourhood is
//     incoherent (some neighbour more than one increment away) back to the
//     bottom of the tail (-Alpha).
//
// The parameters follow the paper's description of [11]: K must exceed the
// cyclomatic characteristic of the network and Alpha ≥ T_G - 2 where T_G is
// the length of the longest chordless cycle. ParametersFor derives legal
// values for a given topology.
//
// The reproduction is used as a move-complexity comparator (experiment E6);
// its stabilization time in moves is O(D·n³ + α·n²) versus O(D·n²) for
// U ∘ SDR.
type BPV struct {
	k     int
	alpha int
}

var (
	_ sim.Algorithm  = (*BPV)(nil)
	_ sim.Enumerable = (*BPV)(nil)
)

// BPVState is the extended clock of the baseline: R ∈ {-Alpha, ..., K-1}.
type BPVState struct {
	// R is the extended clock value (negative values are tail values).
	R int
}

var _ sim.State = BPVState{}

// Equal implements sim.State.
func (s BPVState) Equal(other sim.State) bool {
	o, ok := other.(BPVState)
	return ok && o.R == s.R
}

// String implements sim.State.
func (s BPVState) String() string { return fmt.Sprintf("r=%d", s.R) }

// AppendStateKey implements sim.KeyAppender: exactly the String() bytes,
// without allocating.
func (s BPVState) AppendStateKey(dst []byte) []byte {
	dst = append(dst, "r="...)
	return strconv.AppendInt(dst, int64(s.R), 10)
}

// Key64 implements sim.KeyedState: the zigzagged extended clock always fits.
func (s BPVState) Key64() (uint64, bool) { return sim.ZigZag64(s.R), true }

// NewBPV returns the baseline with period k and tail length alpha.
// It panics when k < 2 or alpha < 1.
func NewBPV(k, alpha int) *BPV {
	if k < 2 {
		panic(fmt.Sprintf("unison: BPV period K must be at least 2, got %d", k))
	}
	if alpha < 1 {
		panic(fmt.Sprintf("unison: BPV tail length Alpha must be at least 1, got %d", alpha))
	}
	return &BPV{k: k, alpha: alpha}
}

// ParametersFor returns legal (K, Alpha) parameters for the given topology:
// K = n + 1 (which exceeds the cyclomatic characteristic, itself at most the
// longest cycle length ≤ n) and Alpha = max(T_G - 2, 1).
func ParametersFor(g *graph.Graph) (k, alpha int) {
	k = g.N() + 1
	tg := g.LongestChordlessCycle(0)
	alpha = tg - 2
	if alpha < 1 {
		alpha = 1
	}
	return k, alpha
}

// NewBPVFor returns the baseline instantiated with ParametersFor(g).
func NewBPVFor(g *graph.Graph) *BPV {
	return NewBPV(ParametersFor(g))
}

// K returns the period.
func (b *BPV) K() int { return b.k }

// Alpha returns the tail length.
func (b *BPV) Alpha() int { return b.alpha }

// UsesIdentifiers implements sim.IdentifierUser: the baseline is anonymous
// (guards compare extended clock values only).
func (b *BPV) UsesIdentifiers() bool { return false }

// Name implements sim.Algorithm.
func (b *BPV) Name() string { return fmt.Sprintf("BPV(K=%d,α=%d)", b.k, b.alpha) }

// InitialState implements sim.Algorithm: the canonical initial configuration
// has every clock at 0.
func (b *BPV) InitialState(int, *sim.Network) sim.State { return BPVState{R: 0} }

// StateCount implements sim.Enumerable: all values of the tailed ring.
func (b *BPV) StateCount(int, *sim.Network) int { return b.alpha + b.k }

// StateAt implements sim.Enumerable: the extended clock values
// -Alpha, ..., K-1 in increasing order.
func (b *BPV) StateAt(_ int, _ *sim.Network, i int) sim.State {
	return BPVState{R: i - b.alpha}
}

// Rule names of the baseline.
const (
	// RuleBPVNormal is the clock-increment action NA.
	RuleBPVNormal = "NA"
	// RuleBPVReset is the correction action RA.
	RuleBPVReset = "RA"
)

// Rules implements sim.Algorithm.
func (b *BPV) Rules() []sim.Rule {
	return []sim.Rule{
		{
			Name:  RuleBPVNormal,
			Guard: func(v sim.View) bool { return b.canIncrement(v) },
			Action: func(v sim.View) sim.State {
				return BPVState{R: b.phi(bpvClock(v.Self()))}
			},
		},
		{
			Name:  RuleBPVReset,
			Guard: func(v sim.View) bool { return b.mustReset(v) },
			Action: func(v sim.View) sim.State {
				return BPVState{R: -b.alpha}
			},
		},
	}
}

// bpvClock extracts a BPV register value. Like clockOf it is a bare type
// assertion, which panics on a foreign state type with the runtime's message
// naming both types and keeps the per-neighbour read inlinable.
func bpvClock(s sim.State) int { return s.(BPVState).R }

// phi is the increment function on the tailed ring: tail values move towards
// 0, ring values wrap modulo K.
func (b *BPV) phi(x int) int {
	if x == b.k-1 {
		return 0
	}
	return x + 1
}

// similar reports whether two extended clock values are at most one
// increment apart: circular distance on the ring, linear distance when a
// tail value is involved.
func (b *BPV) similar(x, y int) bool {
	if x < 0 || y < 0 {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d <= 1
	}
	return CircularDistance(x, y, b.k) <= 1
}

// canFollow reports whether a process with value x may increment given a
// neighbour at value y.
func (b *BPV) canFollow(x, y int) bool {
	switch {
	case x < -1:
		// Deep in the tail: the process climbs whenever it is a local
		// minimum in the extended order (every ring value counts as above
		// every tail value).
		return y >= x
	case x == -1:
		// Leaving the tail: every neighbour must be around the ring origin
		// so that entering the ring immediately satisfies the drift bound.
		return y == -1 || y == 0 || y == 1
	default:
		// Ring: the neighbour must be on time or one increment ahead.
		return y >= 0 && (y == x || y == (x+1)%b.k)
	}
}

func (b *BPV) canIncrement(v sim.View) bool {
	x := bpvClock(v.Self())
	for i := 0; i < v.Degree(); i++ {
		if !b.canFollow(x, bpvClock(v.Neighbor(i))) {
			return false
		}
	}
	return true
}

func (b *BPV) mustReset(v sim.View) bool {
	x := bpvClock(v.Self())
	if x < 0 {
		return false
	}
	for i := 0; i < v.Degree(); i++ {
		if !b.similar(x, bpvClock(v.Neighbor(i))) {
			return true
		}
	}
	return false
}

// LegitimatePredicate returns the per-process legitimacy predicate of the
// baseline: the process's clock is in the ring and within the unison drift
// bound of every neighbour's clock. It holds at every process exactly when
// every clock is in the ring and every edge satisfies the drift bound.
func (b *BPV) LegitimatePredicate() sim.ProcessPredicate {
	return func(v sim.View) bool {
		x := bpvClock(v.Self())
		if x < 0 {
			return false
		}
		for i := 0; i < v.Degree(); i++ {
			if CircularDistance(x, bpvClock(v.Neighbor(i)), b.k) > 1 {
				return false
			}
		}
		return true
	}
}

// MaxBaselineStabilizationMoves is the asymptotic move bound of the baseline
// reported by the paper (as analysed in [23]): O(D·n³ + α·n²). The constant
// is unspecified in the paper; the returned value D·n³ + α·n² is used purely
// for plotting the expected shape next to measurements.
func MaxBaselineStabilizationMoves(n, d, alpha int) int {
	return d*n*n*n + alpha*n*n
}
