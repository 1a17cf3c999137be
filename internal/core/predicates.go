package core

import "sdr/internal/sim"

// The predicates of Algorithm 1, evaluated at a process through its view
// over composed states. Each function mirrors one predicate of the paper.

// PClean is P_Clean(u) ≡ ∀v ∈ N[u], st_v = C: no member of the closed
// neighbourhood of u is involved in a reset.
func PClean(v sim.View) bool {
	if SDRPart(v.Self()).St != StatusC {
		return false
	}
	for i := 0; i < v.Degree(); i++ {
		if SDRPart(v.Neighbor(i)).St != StatusC {
			return false
		}
	}
	return true
}

// PICorrect is P_ICorrect(u): the input algorithm's local-consistency
// predicate, evaluated on the inner states of the closed neighbourhood.
func PICorrect(inner Resettable, v sim.View) bool {
	return inner.ICorrect(NewInnerView(v))
}

// PReset is P_reset(u): whether u's inner state is the pre-defined reset
// state of u.
func PReset(inner Resettable, v sim.View) bool {
	return inner.IsReset(v.Process(), v.Network(), InnerPart(v.Self()))
}

// pResetNeighbor evaluates P_reset at the i-th neighbour of the view.
func pResetNeighbor(inner Resettable, v sim.View, i int) bool {
	net := v.Network()
	w := net.Neighbor(v.Process(), i)
	return inner.IsReset(w, net, InnerPart(v.Neighbor(i)))
}

// PCorrect is P_Correct(u) ≡ st_u = C ⇒ P_ICorrect(u).
func PCorrect(inner Resettable, v sim.View) bool {
	if SDRPart(v.Self()).St != StatusC {
		return true
	}
	return PICorrect(inner, v)
}

// PR1 is P_R1(u) ≡ st_u = C ∧ ¬P_reset(u) ∧ (∃v ∈ N(u), st_v = RF): u looks
// clean but is not in a reset state while a neighbour is already feeding a
// reset back — an SDR-level inconsistency.
func PR1(inner Resettable, v sim.View) bool {
	if SDRPart(v.Self()).St != StatusC || PReset(inner, v) {
		return false
	}
	for i := 0; i < v.Degree(); i++ {
		if SDRPart(v.Neighbor(i)).St == StatusRF {
			return true
		}
	}
	return false
}

// PRB is P_RB(u) ≡ st_u = C ∧ (∃v ∈ N(u), st_v = RB): u can join the
// broadcast phase of a neighbouring reset.
func PRB(v sim.View) bool {
	if SDRPart(v.Self()).St != StatusC {
		return false
	}
	for i := 0; i < v.Degree(); i++ {
		if SDRPart(v.Neighbor(i)).St == StatusRB {
			return true
		}
	}
	return false
}

// PRF is P_RF(u) ≡ st_u = RB ∧ P_reset(u) ∧
// (∀v ∈ N(u), (st_v = RB ∧ d_v ≤ d_u) ∨ (st_v = RF ∧ P_reset(v))): u may
// switch from the broadcast phase to the feedback phase.
func PRF(inner Resettable, v sim.View) bool {
	self := SDRPart(v.Self())
	if self.St != StatusRB || !PReset(inner, v) {
		return false
	}
	for i := 0; i < v.Degree(); i++ {
		nb := SDRPart(v.Neighbor(i))
		okRB := nb.St == StatusRB && nb.D <= self.D
		okRF := nb.St == StatusRF && pResetNeighbor(inner, v, i)
		if !okRB && !okRF {
			return false
		}
	}
	return true
}

// PC is P_C(u) ≡ st_u = RF ∧
// (∀v ∈ N[u], P_reset(v) ∧ ((st_v = RF ∧ d_v ≥ d_u) ∨ st_v = C)): u may
// terminate its participation in the reset and return to status C.
func PC(inner Resettable, v sim.View) bool {
	self := SDRPart(v.Self())
	if self.St != StatusRF {
		return false
	}
	// v = u itself: P_reset(u) must hold (the st/d conditions hold trivially).
	if !PReset(inner, v) {
		return false
	}
	for i := 0; i < v.Degree(); i++ {
		nb := SDRPart(v.Neighbor(i))
		if !pResetNeighbor(inner, v, i) {
			return false
		}
		okRF := nb.St == StatusRF && nb.D >= self.D
		okC := nb.St == StatusC
		if !okRF && !okC {
			return false
		}
	}
	return true
}

// PR2 is P_R2(u) ≡ st_u ≠ C ∧ ¬P_reset(u): u claims to be resetting but its
// inner state is not the reset state — an SDR-level inconsistency.
func PR2(inner Resettable, v sim.View) bool {
	return SDRPart(v.Self()).St != StatusC && !PReset(inner, v)
}

// PUp is P_Up(u) ≡ ¬P_RB(u) ∧ (P_R1(u) ∨ P_R2(u) ∨ ¬P_Correct(u)): u must
// initiate its own reset (no neighbouring broadcast to join, and either an
// SDR-level or an I-level inconsistency is visible locally).
func PUp(inner Resettable, v sim.View) bool {
	if PRB(v) {
		return false
	}
	return PR1(inner, v) || PR2(inner, v) || !PCorrect(inner, v)
}

// PRoot is P_root(u) ≡ st_u = RB ∧ (∀v ∈ N(u), st_v = RB ⇒ d_v ≥ d_u):
// u is a local minimum of the distance values among broadcast processes.
func PRoot(v sim.View) bool {
	self := SDRPart(v.Self())
	if self.St != StatusRB {
		return false
	}
	for i := 0; i < v.Degree(); i++ {
		nb := SDRPart(v.Neighbor(i))
		if nb.St == StatusRB && nb.D < self.D {
			return false
		}
	}
	return true
}

// IsAliveRoot reports whether u is an alive root: P_Up(u) ∨ P_root(u)
// (Definition 1). Theorem 3 shows no alive root is ever created, which is
// the key to the move-complexity analysis.
func IsAliveRoot(inner Resettable, v sim.View) bool {
	return PUp(inner, v) || PRoot(v)
}

// NormalPredicate returns the per-process conjunct of normal configurations
// (Definition 6 / Corollary 5), P_Clean(u) ∧ P_ICorrect(u), bound to the
// inner algorithm. A configuration is normal when it holds at every process
// (sim.AllProcesses lifts it); normal configurations are exactly the
// terminal configurations of SDR (Theorem 1) and form the legitimate set of
// the composition. sim.WithLegitimate takes it as it is and decides it over
// the neighbourhoods each step touched.
func NormalPredicate(inner Resettable) sim.ProcessPredicate {
	return func(v sim.View) bool { return PClean(v) && PICorrect(inner, v) }
}
