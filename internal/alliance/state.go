package alliance

import (
	"fmt"
	"strconv"

	"sdr/internal/sim"
)

// NoPointer is the ⊥ value of the pointer variable ptr_u.
const NoPointer = -1

// FGAState is the local state of Algorithm FGA (Algorithm 3): the four
// variables col_u, scr_u, canQ_u and ptr_u.
type FGAState struct {
	// Col reports whether the process belongs to the alliance (the output).
	Col bool
	// Scr is the score scr_u ∈ {-1, 0, 1}; scr_u ≤ 0 means no neighbour of u
	// may quit the alliance.
	Scr int
	// CanQ reports whether the process may quit the alliance.
	CanQ bool
	// Ptr is the identifier of the member of the closed neighbourhood the
	// process currently approves for leaving the alliance, or NoPointer (⊥).
	Ptr int
}

var _ sim.State = FGAState{}

// Equal implements sim.State.
func (s FGAState) Equal(other sim.State) bool {
	o, ok := other.(FGAState)
	return ok && s == o
}

// String implements sim.State.
func (s FGAState) String() string {
	col, canQ := 0, 0
	if s.Col {
		col = 1
	}
	if s.CanQ {
		canQ = 1
	}
	ptr := "⊥"
	if s.Ptr != NoPointer {
		ptr = fmt.Sprintf("%d", s.Ptr)
	}
	return fmt.Sprintf("col=%d scr=%+d q=%d p=%s", col, s.Scr, canQ, ptr)
}

// AppendStateKey implements sim.KeyAppender: exactly the String() bytes,
// without allocating.
func (s FGAState) AppendStateKey(dst []byte) []byte {
	dst = append(dst, "col="...)
	if s.Col {
		dst = append(dst, '1')
	} else {
		dst = append(dst, '0')
	}
	// %+d always renders a sign, including "+0".
	dst = append(dst, " scr="...)
	if s.Scr >= 0 {
		dst = append(dst, '+')
	}
	dst = strconv.AppendInt(dst, int64(s.Scr), 10)
	dst = append(dst, " q="...)
	if s.CanQ {
		dst = append(dst, '1')
	} else {
		dst = append(dst, '0')
	}
	dst = append(dst, " p="...)
	if s.Ptr == NoPointer {
		return append(dst, "⊥"...)
	}
	return strconv.AppendInt(dst, int64(s.Ptr), 10)
}

// Key64 implements sim.KeyedState: the two booleans, the zigzagged score (4
// bits) and the zigzagged pointer, when score and pointer fit.
func (s FGAState) Key64() (uint64, bool) {
	zs, zp := sim.ZigZag64(s.Scr), sim.ZigZag64(s.Ptr)
	if zs >= 1<<4 || zp >= 1<<56 {
		return 0, false
	}
	key := zp<<8 | zs<<4
	if s.Col {
		key |= 1
	}
	if s.CanQ {
		key |= 2
	}
	return key, true
}

// ResetFGAState is the pre-defined state installed by the reset(u) macro and
// used as γ_init: col = true, scr = 1, canQ = true, ptr = ⊥.
func ResetFGAState() FGAState {
	return FGAState{Col: true, Scr: 1, CanQ: true, Ptr: NoPointer}
}

// fgaOf extracts an FGA state. A foreign state type is a wiring mistake,
// and the bare type assertion panics on it with the runtime's message naming
// both types; a formatted panic would keep this per-neighbour read from
// inlining.
func fgaOf(s sim.State) FGAState { return s.(FGAState) }
