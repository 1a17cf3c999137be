package core

import (
	"strings"
	"testing"
	"testing/quick"

	"sdr/internal/sim"
)

// testInner is a tiny Resettable used by the unit tests of this package: each
// process holds one integer; the reset state is 0; a state is locally correct
// when it differs from every neighbour by at most 1. It behaves like a
// miniature unison without wrap-around, which keeps expected behaviours easy
// to compute by hand.
type testInner struct{ limit int }

type testInnerState struct{ V int }

func (s testInnerState) Equal(o sim.State) bool {
	os, ok := o.(testInnerState)
	return ok && os == s
}
func (s testInnerState) String() string {
	return "v=" + itoa(s.V)
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func newTestInner(limit int) *testInner { return &testInner{limit: limit} }

func (a *testInner) Name() string                             { return "test-inner" }
func (a *testInner) InitialInner(int, *sim.Network) sim.State { return testInnerState{V: 0} }
func (a *testInner) ResetState(int, *sim.Network) sim.State   { return testInnerState{V: 0} }
func (a *testInner) IsReset(_ int, _ *sim.Network, inner sim.State) bool {
	return inner.(testInnerState).V == 0
}
func (a *testInner) InnerStateCount(int, *sim.Network) int { return a.limit + 1 }
func (a *testInner) InnerStateAt(_ int, _ *sim.Network, i int) sim.State {
	return testInnerState{V: i}
}

func (a *testInner) ICorrect(v InnerView) bool {
	self := v.Self().(testInnerState).V
	return v.AllNeighbors(func(s sim.State) bool {
		d := s.(testInnerState).V - self
		return d >= -1 && d <= 1
	})
}

func (a *testInner) Decide(v InnerView) (bool, int) {
	self := v.Self().(testInnerState).V
	localMin := true
	for i := 0; i < v.Degree(); i++ {
		d := v.Neighbor(i).(testInnerState).V - self
		if d < -1 || d > 1 {
			return false, -1
		}
		localMin = localMin && d >= 0
	}
	if localMin && self < a.limit && v.Clean() {
		return true, 0
	}
	return true, -1
}

func (a *testInner) InnerRules() []InnerRule {
	return []InnerRule{{
		Name: "inc",
		Guard: func(v InnerView) bool {
			if !v.Clean() {
				return false
			}
			self := v.Self().(testInnerState).V
			if self >= a.limit {
				return false
			}
			// A process may increment when it is a local minimum.
			return v.AllNeighbors(func(s sim.State) bool { return s.(testInnerState).V >= self })
		},
		Action: func(v InnerView) sim.State {
			return testInnerState{V: v.Self().(testInnerState).V + 1}
		},
	}}
}

var (
	_ Resettable      = (*testInner)(nil)
	_ InnerEnumerable = (*testInner)(nil)
)

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusC:   "C",
		StatusRB:  "RB",
		StatusRF:  "RF",
		Status(9): "Status(9)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestStatusValid(t *testing.T) {
	for _, st := range []Status{StatusC, StatusRB, StatusRF} {
		if !st.Valid() {
			t.Errorf("%v should be valid", st)
		}
	}
	if Status(0).Valid() || Status(4).Valid() {
		t.Error("out-of-range statuses should be invalid")
	}
}

func TestSDRStateString(t *testing.T) {
	if got := CleanSDRState().String(); got != "C" {
		t.Errorf("clean state renders as %q, want C", got)
	}
	if got := (SDRState{St: StatusRB, D: 4}).String(); got != "RB@4" {
		t.Errorf("broadcast state renders as %q, want RB@4", got)
	}
	if got := (SDRState{St: StatusRF, D: 0}).String(); got != "RF@0" {
		t.Errorf("feedback state renders as %q, want RF@0", got)
	}
}

func TestSDRStateEqual(t *testing.T) {
	a := SDRState{St: StatusRB, D: 1}
	if !a.Equal(SDRState{St: StatusRB, D: 1}) {
		t.Error("identical states must be equal")
	}
	if a.Equal(SDRState{St: StatusRB, D: 2}) || a.Equal(SDRState{St: StatusRF, D: 1}) {
		t.Error("different states must not be equal")
	}
}

func TestComposedStateEqual(t *testing.T) {
	s := ComposedState{SDR: SDRState{St: StatusRB, D: 2}, Inner: testInnerState{V: 3}}
	if !s.Equal(ComposedState{SDR: SDRState{St: StatusRB, D: 2}, Inner: testInnerState{V: 3}}) {
		t.Error("states with equal parts must be equal")
	}
	other := ComposedState{SDR: SDRState{St: StatusRB, D: 2}, Inner: testInnerState{V: 4}}
	if s.Equal(other) {
		t.Error("states with different inner parts must not be equal")
	}
	if s.Equal(testInnerState{V: 3}) {
		t.Error("a composed state must not equal a foreign state type")
	}
}

func TestComposedStateString(t *testing.T) {
	s := ComposedState{SDR: SDRState{St: StatusRF, D: 1}, Inner: testInnerState{V: 2}}
	str := s.String()
	if !strings.Contains(str, "RF@1") || !strings.Contains(str, "v=2") {
		t.Errorf("composed state rendering %q should mention both parts", str)
	}
}

func TestSDRPartInnerPartAccessors(t *testing.T) {
	s := ComposedState{SDR: SDRState{St: StatusRB, D: 7}, Inner: testInnerState{V: 5}}
	if got := SDRPart(s); got != s.SDR {
		t.Errorf("SDRPart = %v, want %v", got, s.SDR)
	}
	if got := InnerPart(s); !got.Equal(testInnerState{V: 5}) {
		t.Errorf("InnerPart = %v, want v=5", got)
	}
}

func TestWithSDRAndWithInner(t *testing.T) {
	s := ComposedState{SDR: CleanSDRState(), Inner: testInnerState{V: 1}}
	replaced := WithSDR(s, SDRState{St: StatusRF, D: 3})
	if SDRPart(replaced).St != StatusRF || SDRPart(replaced).D != 3 {
		t.Errorf("WithSDR did not replace the SDR part: %v", replaced)
	}
	if !InnerPart(replaced).Equal(testInnerState{V: 1}) {
		t.Errorf("WithSDR must keep the inner part: %v", replaced)
	}
	replaced2 := WithInner(s, testInnerState{V: 9})
	if !InnerPart(replaced2).Equal(testInnerState{V: 9}) {
		t.Errorf("WithInner did not replace the inner part: %v", replaced2)
	}
	if SDRPart(replaced2) != s.SDR {
		t.Errorf("WithInner must keep the SDR part: %v", replaced2)
	}
}

func TestMustComposedPanicsOnForeignState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SDRPart on a non-composed state must panic")
		}
	}()
	SDRPart(testInnerState{V: 0})
}

func TestQuickSDRStateStringInjective(t *testing.T) {
	// Distinct reset-involved SDR states must render differently:
	// Configuration.Key relies on String for state-space exploration. States
	// with status C all render as "C" by design (the distance is meaningless
	// there), so the property quantifies over RB/RF states only.
	f := func(d1, d2 uint8, s1, s2 bool) bool {
		toStatus := func(b bool) Status {
			if b {
				return StatusRB
			}
			return StatusRF
		}
		st1 := SDRState{St: toStatus(s1), D: int(d1)}
		st2 := SDRState{St: toStatus(s2), D: int(d2)}
		if st1.Equal(st2) {
			return st1.String() == st2.String()
		}
		return st1.String() != st2.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if (SDRState{St: StatusC, D: 0}).String() != (SDRState{St: StatusC, D: 7}).String() {
		t.Error("states with status C render identically regardless of the distance")
	}
}
