package sim

import (
	"encoding/binary"
	"sync"
)

// KeyInterner builds compact map keys for configurations: every distinct
// local state (by its canonical String rendering) is assigned a small
// integer id once, and a configuration's key is the varint encoding of its
// per-process ids. On the product state spaces that exploration and cycle
// detection visit, the number of distinct local states is tiny compared to
// the number of configurations, so interning shrinks both the bytes hashed
// per lookup and the resident key set compared to rendering every local
// state into a string key.
//
// Keys from the same interner are equal exactly when the configurations
// render equal per-process states; keys from different interners are not
// comparable. Ids depend on discovery order, but equal states always receive
// equal ids, so key equality is order-independent even under concurrent
// interning.
//
// The id table is internally synchronised: AppendKey may be called from
// many goroutines (each with its own scratch buffer), which is how the
// checker's parallel exploration interns frontier successors.
type KeyInterner struct {
	mu  sync.RWMutex
	ids map[string]uint64
}

// NewKeyInterner returns an empty interner.
func NewKeyInterner() *KeyInterner {
	return &KeyInterner{ids: make(map[string]uint64)}
}

// KeyAppender is the allocation-free rendering bypass of the interner: state
// types that implement it append exactly the bytes of their String()
// rendering to dst instead of building a string per call. The byte-for-byte
// equivalence matters — the interner's id table is keyed by the rendering,
// so a state interned through either path must land on the same id.
type KeyAppender interface {
	AppendStateKey(dst []byte) []byte
}

// AppendStateKey renders s into dst through the KeyAppender bypass when the
// state implements it and through String() otherwise.
func AppendStateKey(dst []byte, s State) []byte {
	if ka, ok := s.(KeyAppender); ok {
		return ka.AppendStateKey(dst)
	}
	return append(dst, s.String()...)
}

// KeyedState is optionally implemented by states that can encode themselves
// into a uint64 such that equal encodings imply equal String() renderings
// (distinct encodings for equal renderings are harmless — they intern to the
// same id). Key64 reports false when this particular value does not fit the
// 64 bits; callers fall back to the rendering path, so implementations can
// assume nothing about field ranges and simply bounds-check. The memo layer
// fronts the shared interner with an evaluator-local map keyed by these
// encodings, turning the per-move re-interning of a state into one unlocked
// integer-map probe instead of a rendering plus a locked string-map lookup.
// The composition I ∘ SDR hashes the same encoding to share the boxes its
// rule actions return, and confirms a match with ==, so a KeyedState must be
// a comparable type whose == is value equality.
type KeyedState interface {
	Key64() (uint64, bool)
}

// StateKey64 returns the state's uint64 encoding through the KeyedState
// bypass, or false when the state does not provide (or fit) one.
func StateKey64(s State) (uint64, bool) {
	if ks, ok := s.(KeyedState); ok {
		return ks.Key64()
	}
	return 0, false
}

// ZigZag64 maps a signed int to a uint64 injectively (the varint zigzag
// transform), for KeyedState implementations packing signed fields.
func ZigZag64(v int) uint64 {
	x := int64(v)
	return uint64((x << 1) ^ (x >> 63))
}

// StateID returns the interned id of state s, rendering it into scratch
// (returned grown for reuse). The common path — an already-interned state —
// allocates nothing: the rendering goes through the KeyAppender bypass and
// the map lookup is keyed by the byte slice directly; only the first sight
// of a state materialises the rendering as a string. Safe for concurrent use
// as long as every goroutine passes its own scratch.
func (ki *KeyInterner) StateID(s State, scratch []byte) (uint64, []byte) {
	scratch = AppendStateKey(scratch[:0], s)
	return ki.idBytes(scratch), scratch
}

// idBytes is the byte-slice twin of id: the read path looks the rendering up
// without converting it to a string (the compiler elides the conversion in
// map lookups), so only first sights allocate.
func (ki *KeyInterner) idBytes(b []byte) uint64 {
	ki.mu.RLock()
	id, ok := ki.ids[string(b)]
	ki.mu.RUnlock()
	if ok {
		return id
	}
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if id, ok := ki.ids[string(b)]; ok {
		return id
	}
	id = uint64(len(ki.ids))
	ki.ids[string(b)] = id
	return id
}

// AppendKey renders the compact key of c into buf and returns it as a
// freshly allocated string safe to retain as a map key, together with the
// grown scratch buffer for the next call. It is safe for concurrent use as
// long as every goroutine passes its own buffer.
//
// Each state is rendered into the tail of buf through the KeyAppender bypass
// and looked up by those bytes, then the rendering is overwritten by the
// varint of its id — so the hot path (already-interned states) allocates
// nothing, where the former per-state String() calls allocated one string
// per process per key.
func (ki *KeyInterner) AppendKey(buf []byte, c *Configuration) (string, []byte) {
	buf = buf[:0]
	n := c.N()
	for u := 0; u < n; u++ {
		mark := len(buf)
		buf = AppendStateKey(buf, c.State(u))
		id := ki.idBytes(buf[mark:])
		buf = binary.AppendUvarint(buf[:mark], id)
	}
	return string(buf), buf
}

// States returns the number of distinct local states interned so far.
func (ki *KeyInterner) States() int {
	ki.mu.RLock()
	defer ki.mu.RUnlock()
	return len(ki.ids)
}
