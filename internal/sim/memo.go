package sim

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

// This file implements neighbourhood-transition memoization: a cache from a
// process's closed-neighbourhood state (its own state plus its neighbours'
// states, as interned ids) to the bitmask of its enabled rules. Guards in the
// locally shared memory model read closed neighbourhoods only, so the mask is
// a pure function of that key — the same observation PR 1's incremental
// engine rests on. A campaign cell re-answers the same neighbourhood
// questions millions of times across its seeded trials; the memo layer
// answers repeats with one map lookup instead of re-running every guard.
//
// Cache-key scheme. A key is the sequence (own state id, neighbour state ids
// in local-label order), prefixed with the process's identifier and its
// neighbours' identifiers for algorithms that read View.ID/NeighborID. The
// neighbour ids are deliberately NOT sorted (the guard sees neighbours
// through ordered local labels, so permuting them is not semantics-
// preserving in general); keys self-describe the neighbourhood, which makes
// them valid across processes, trials and even topology mutations — churn
// needs no invalidation of the table, only of the per-run id mirror. Tables
// are segregated per degree class; small neighbourhoods pack their ids into
// one uint64 (no allocation, single map probe), wider ones spill to a
// varint-encoded string key.
//
// Sharing protocol. A MemoShare is the per-cell rendezvous: the first run to
// finish against an unfrozen share donates its table, which is atomically
// published frozen (immutable — lock-free on the hit path) to every run that
// starts afterwards. Later runs layer a private writable table over the
// frozen one for neighbourhoods the donor never saw. The campaign runner
// completes a cell's first satisfiable trial before its remaining trials
// start, so the donor is always that trial and per-trial hit counts are
// deterministic (independent of the worker count).

// DefaultMemoEntries bounds a memo table's entry count when the share does
// not override it. Past the cap a table stops filling and keeps serving its
// existing entries, so unbounded local state spaces degrade gracefully to
// direct guard evaluation (counted as bypasses).
const DefaultMemoEntries = 1 << 18

// memoMaxRules bounds the rule sets the memo layer handles: the enabled set
// of one process must fit a uint64 bitmask. NewMemoEvaluator returns nil for
// larger rule sets and callers fall back to the plain Evaluator.
const memoMaxRules = 64

// MemoStats counts the outcomes of memoized enabledness lookups. Every
// lookup is a hit or a miss; every miss falls back to direct guard
// evaluation and then either fills the local table or is bypassed (entry cap
// reached).
type MemoStats struct {
	// Hits counts lookups answered without guard evaluation: from the
	// per-process mask cache, the frozen shared table or the run-local
	// table.
	Hits uint64
	// Misses counts lookups that fell back to direct guard evaluation.
	Misses uint64
	// Fills counts misses whose result was added to the run-local table.
	Fills uint64
	// Bypasses counts misses that could not be cached because the entry cap
	// was reached.
	Bypasses uint64
}

// Lookups returns the total number of memoized lookups.
func (s MemoStats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate returns Hits/Lookups, or 0 when nothing was looked up.
func (s MemoStats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits) / float64(l)
	}
	return 0
}

// Add accumulates o into s.
func (s *MemoStats) Add(o MemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Fills += o.Fills
	s.Bypasses += o.Bypasses
}

// IdentifierUser is optionally implemented by algorithms to declare whether
// their rule guards read View.ID/NeighborID (directly or through composed
// predicates). Algorithms that do not implement it are conservatively
// assumed to read identifiers, which only makes memo keys longer — anonymous
// algorithms (unison, BPV) declare false and share cache entries across
// processes with equal neighbourhood states.
type IdentifierUser interface {
	UsesIdentifiers() bool
}

// AlgorithmUsesIdentifiers reports whether memo keys for the algorithm must
// include process identifiers: false only when the algorithm explicitly
// declares itself identifier-free.
func AlgorithmUsesIdentifiers(a Algorithm) bool {
	if iu, ok := a.(IdentifierUser); ok {
		return iu.UsesIdentifiers()
	}
	return true
}

// memoClass is the per-degree-class table: neighbourhoods whose ids fit one
// uint64 live in packed, the rest spill to varint-encoded string keys.
type memoClass struct {
	packed map[uint64]uint64
	spill  map[string]uint64
}

// MemoTable maps interned neighbourhood keys to enabled-rule bitmasks for
// one (algorithm, identifier-mode) pair. A table is either private to one
// MemoEvaluator or frozen (immutable) inside a MemoShare; only frozen tables
// may be read concurrently.
type MemoTable struct {
	alg        string
	rules      int
	identified bool
	maxEntries int
	entries    int
	frozen     bool
	// classes is indexed by degree (degrees are bounded by the network
	// size, so a slice beats a map on the hit path); nil entries are
	// classes never filled.
	classes []*memoClass
}

// newMemoTable returns an empty table for the evaluator's shape.
func newMemoTable(alg string, rules int, identified bool, maxEntries int) *MemoTable {
	if maxEntries <= 0 {
		maxEntries = DefaultMemoEntries
	}
	return &MemoTable{
		alg:        alg,
		rules:      rules,
		identified: identified,
		maxEntries: maxEntries,
	}
}

// compatible reports whether the table caches the same (algorithm, rule set,
// identifier mode) the evaluator asks about; a frozen table from a
// mismatched share is ignored rather than consulted unsoundly.
func (t *MemoTable) compatible(alg string, rules int, identified bool) bool {
	return t != nil && t.alg == alg && t.rules == rules && t.identified == identified
}

// packKey packs the component ids into one uint64 key, giving each of the
// len(comps) components 64/len(comps) bits. ok is false when a component
// does not fit (the neighbourhood spills to the string key).
func packKey(comps []uint64) (key uint64, ok bool) {
	width := uint(64 / len(comps))
	if width == 0 {
		return 0, false
	}
	if width < 64 { // a single component always fits its full 64 bits
		limit := uint64(1) << width
		for _, c := range comps {
			if c >= limit {
				return 0, false
			}
		}
	}
	for _, c := range comps {
		key = key<<width | c
	}
	return key, true
}

// spillKey renders the component ids as a varint string into buf.
func spillKey(comps []uint64, buf []byte) ([]byte, []byte) {
	buf = buf[:0]
	for _, c := range comps {
		buf = binary.AppendUvarint(buf, c)
	}
	return buf, buf
}

// lookup probes the degree class for the neighbourhood key. buf is the
// caller's scratch for the spill rendering; it is returned grown.
func (t *MemoTable) lookup(degree int, comps []uint64, buf []byte) (mask uint64, ok bool, _ []byte) {
	if degree >= len(t.classes) || t.classes[degree] == nil {
		return 0, false, buf
	}
	cl := t.classes[degree]
	if key, packed := packKey(comps); packed {
		mask, ok = cl.packed[key]
		return mask, ok, buf
	}
	var k []byte
	k, buf = spillKey(comps, buf)
	mask, ok = cl.spill[string(k)]
	return mask, ok, buf
}

// insert caches the mask for the neighbourhood key; it reports false when
// the entry cap is reached or the table is frozen (the caller counts a
// bypass). buf is the caller's spill scratch, returned grown.
func (t *MemoTable) insert(degree int, comps []uint64, mask uint64, buf []byte) (bool, []byte) {
	if t.frozen || t.entries >= t.maxEntries {
		return false, buf
	}
	for degree >= len(t.classes) {
		t.classes = append(t.classes, nil)
	}
	cl := t.classes[degree]
	if cl == nil {
		cl = &memoClass{packed: make(map[uint64]uint64)}
		t.classes[degree] = cl
	}
	if key, packed := packKey(comps); packed {
		cl.packed[key] = mask
	} else {
		var k []byte
		k, buf = spillKey(comps, buf)
		if cl.spill == nil {
			cl.spill = make(map[string]uint64)
		}
		cl.spill[string(k)] = mask
	}
	t.entries++
	return true, buf
}

// MemoShare is the cross-trial rendezvous of one sweep cell: the shared
// state interner (so ids mean the same thing in every trial's keys) and the
// frozen table donated by the cell's first completed run. It is safe for
// concurrent use; the frozen table is read lock-free.
type MemoShare struct {
	interner   *KeyInterner
	maxEntries int
	frozen     atomic.Pointer[MemoTable]
}

// NewMemoShare returns an empty share. maxEntries bounds donated and local
// tables; ≤ 0 means DefaultMemoEntries.
func NewMemoShare(maxEntries int) *MemoShare {
	if maxEntries <= 0 {
		maxEntries = DefaultMemoEntries
	}
	return &MemoShare{interner: NewKeyInterner(), maxEntries: maxEntries}
}

// Frozen returns the published read-only table, or nil before donation.
func (s *MemoShare) Frozen() *MemoTable { return s.frozen.Load() }

// donate freezes t and publishes it as the share's read-only table unless
// another run won the race; it reports whether t was published.
func (s *MemoShare) donate(t *MemoTable) bool {
	t.frozen = true
	return s.frozen.CompareAndSwap(nil, t)
}

// MemoEvaluator answers enabledness questions through the memo tables,
// falling back to the wrapped Evaluator's guards on a miss. It mirrors each
// process's current interned state id and revalidates ids lazily, so engine
// integration costs one Invalidate per activated process per step. A
// MemoEvaluator is single-goroutine state (the share behind it is not).
type MemoEvaluator struct {
	ev         *Evaluator
	net        *Network
	rules      []Rule
	interner   *KeyInterner
	share      *MemoShare
	frozen     *MemoTable // published table snapshotted at construction
	local      *MemoTable // private writable overlay
	donor      bool       // no table was frozen when this run started
	identified bool

	ids       []uint64 // interned id of each process's current state
	valid     bitset
	masks     []uint64 // cached enabled-rule mask of each process
	maskValid bitset
	fast      map[uint64]uint64 // Key64 encoding → interned id, lock-free front
	comps     []uint64          // reusable key-component buffer
	render    []byte            // reusable state-rendering scratch
	spill     []byte            // reusable spill-key scratch
	stats     MemoStats
}

// NewMemoEvaluator wraps ev with memo tables attached to share; a nil share
// gives a run-private cache. It returns nil when the rule set cannot be
// memoized (more rules than fit the bitmask) — callers fall back to ev.
func NewMemoEvaluator(ev *Evaluator, share *MemoShare) *MemoEvaluator {
	rules := ev.Rules()
	if len(rules) > memoMaxRules {
		return nil
	}
	n := ev.Network().N()
	m := &MemoEvaluator{
		ev:         ev,
		net:        ev.Network(),
		rules:      rules,
		share:      share,
		identified: AlgorithmUsesIdentifiers(ev.Algorithm()),
		ids:        make([]uint64, n),
		valid:      newBitset(n),
		masks:      make([]uint64, n),
		maskValid:  newBitset(n),
		fast:       make(map[uint64]uint64),
	}
	alg := ev.Algorithm().Name()
	maxEntries := 0
	if share != nil {
		m.interner = share.interner
		maxEntries = share.maxEntries
		if f := share.Frozen(); f.compatible(alg, len(rules), m.identified) {
			m.frozen = f
		} else if f == nil {
			m.donor = true
		}
	} else {
		m.interner = NewKeyInterner()
	}
	m.local = newMemoTable(alg, len(rules), m.identified, maxEntries)
	return m
}

// Stats returns the lookup counters accumulated so far.
func (m *MemoEvaluator) Stats() MemoStats { return m.stats }

// Invalidate drops the cached state id and mask of process u, plus the
// cached masks of u's neighbours — their closed neighbourhoods contain u
// (call after u moves).
func (m *MemoEvaluator) Invalidate(u int) {
	m.valid.clear(u)
	m.maskValid.clear(u)
	for i, deg := 0, m.net.Degree(u); i < deg; i++ {
		m.maskValid.clear(m.net.Neighbor(u, i))
	}
}

// InvalidateAll drops every cached state id and mask (call after an
// injection or when switching to a different configuration).
func (m *MemoEvaluator) InvalidateAll() {
	m.valid.reset()
	m.maskValid.reset()
}

// stateID interns s, preferring the evaluator-local Key64 front (one
// unlocked integer-map probe, no rendering) over the shared interner.
func (m *MemoEvaluator) stateID(s State) uint64 {
	if k, ok := StateKey64(s); ok {
		if id, hit := m.fast[k]; hit {
			return id
		}
		var id uint64
		id, m.render = m.interner.StateID(s, m.render)
		m.fast[k] = id
		return id
	}
	var id uint64
	id, m.render = m.interner.StateID(s, m.render)
	return id
}

// syncNeighborhood revalidates the interned state ids of u's closed
// neighbourhood against c.
func (m *MemoEvaluator) syncNeighborhood(c *Configuration, u int) {
	if !m.valid.get(u) {
		m.ids[u] = m.stateID(c.State(u))
		m.valid.set(u)
	}
	for i, deg := 0, m.net.Degree(u); i < deg; i++ {
		w := m.net.Neighbor(u, i)
		if !m.valid.get(w) {
			m.ids[w] = m.stateID(c.State(w))
			m.valid.set(w)
		}
	}
}

// Mask returns the bitmask of the rules enabled at process u in c (bit i set
// iff rule i's guard holds), answering from the per-process mask cache or
// the memo tables when possible. The caller must Invalidate the processes
// whose states changed since the previous call (the engine invalidates
// activated processes per step).
func (m *MemoEvaluator) Mask(c *Configuration, u int) uint64 {
	if m.maskValid.get(u) {
		m.stats.Hits++
		return m.masks[u]
	}
	mask := m.lookupMask(c, u)
	m.masks[u] = mask
	m.maskValid.set(u)
	return mask
}

// lookupMask answers a mask question the per-process cache could not: from
// the frozen or local memo table, or by direct guard evaluation on a miss.
func (m *MemoEvaluator) lookupMask(c *Configuration, u int) uint64 {
	m.syncNeighborhood(c, u)
	degree := m.net.Degree(u)
	comps := m.comps[:0]
	if m.identified {
		comps = append(comps, ZigZag64(m.net.ID(u)), m.ids[u])
		for i := 0; i < degree; i++ {
			w := m.net.Neighbor(u, i)
			comps = append(comps, ZigZag64(m.net.ID(w)), m.ids[w])
		}
	} else {
		comps = append(comps, m.ids[u])
		for i := 0; i < degree; i++ {
			comps = append(comps, m.ids[m.net.Neighbor(u, i)])
		}
	}
	m.comps = comps

	var mask uint64
	var ok bool
	if m.frozen != nil {
		if mask, ok, m.spill = m.frozen.lookup(degree, comps, m.spill); ok {
			m.stats.Hits++
			return mask
		}
	}
	if mask, ok, m.spill = m.local.lookup(degree, comps, m.spill); ok {
		m.stats.Hits++
		return mask
	}
	m.stats.Misses++
	mask = m.computeMask(c, u)
	var filled bool
	if filled, m.spill = m.local.insert(degree, comps, mask, m.spill); filled {
		m.stats.Fills++
	} else {
		m.stats.Bypasses++
	}
	return mask
}

// computeMask evaluates every rule guard directly.
func (m *MemoEvaluator) computeMask(c *Configuration, u int) uint64 {
	v := m.net.View(c, u)
	var mask uint64
	for i := range m.rules {
		if m.rules[i].Guard(v) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// Enabled reports whether process u has at least one enabled rule in c.
func (m *MemoEvaluator) Enabled(c *Configuration, u int) bool {
	return m.Mask(c, u) != 0
}

// FirstEnabledRule returns the lowest-index enabled rule of u in c, or -1.
func (m *MemoEvaluator) FirstEnabledRule(c *Configuration, u int) int {
	mask := m.Mask(c, u)
	if mask == 0 {
		return -1
	}
	return bits.TrailingZeros64(mask)
}

// Finish donates the run-local table to the share when this run started
// against an unfrozen share (the cell's cache-filling phase). Call once,
// when the run ends; the table becomes immutable either way.
func (m *MemoEvaluator) Finish() {
	m.local.frozen = true
	if m.share != nil && m.donor && m.local.entries > 0 {
		m.share.donate(m.local)
	}
}
