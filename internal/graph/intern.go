package graph

// PathHandle is a small-integer identity for an interned path: two equal
// edge-id sequences interned in the same PathInterner always yield the same
// handle, so hot paths can deduplicate and index paths by integer instead
// of building string keys.
type PathHandle int32

// PathInterner deduplicates paths (edge-id sequences) into dense integer
// handles. Interned edge sequences live in one flat arena and equal-hash
// handles chain through a flat slice, so interning N distinct paths costs
// O(1) allocations amortised rather than one per path, and none at all
// once a Reset table refills within its previous size. The zero value is
// not ready for use; call NewPathInterner. A PathInterner is not safe for
// concurrent use.
type PathInterner struct {
	head  map[uint64]PathHandle // newest handle per hash
	next  []PathHandle          // next[h]: the next older handle with h's hash, or -1
	offs  []int32               // len = Len()+1; path h occupies edges[offs[h]:offs[h+1]]
	edges []EdgeID              // flat arena of all interned sequences
}

// NewPathInterner returns an empty interner.
func NewPathInterner() *PathInterner {
	return &PathInterner{
		head: make(map[uint64]PathHandle, 64),
		offs: []int32{0},
	}
}

// Len returns the number of distinct paths interned.
func (t *PathInterner) Len() int { return len(t.offs) - 1 }

// Reset empties the table but keeps its storage, so a long-lived owner can
// bound the table to one unit of work (a solve) without reallocating it.
// Handles issued before the reset are invalid afterwards.
func (t *PathInterner) Reset() {
	clear(t.head)
	t.next = t.next[:0]
	t.offs = t.offs[:1]
	t.edges = t.edges[:0]
}

// Intern returns the handle of the given edge sequence, adding it to the
// table when new. The input slice is copied on first insertion and may be
// reused by the caller.
func (t *PathInterner) Intern(edges []EdgeID) PathHandle {
	h := hashEdges(edges)
	first, ok := t.head[h]
	if !ok {
		first = -1
	}
	for cand := first; cand >= 0; cand = t.next[cand] {
		if edgesEqual(t.Edges(cand), edges) {
			return cand
		}
	}
	handle := PathHandle(t.Len())
	t.edges = append(t.edges, edges...)
	t.offs = append(t.offs, int32(len(t.edges)))
	t.next = append(t.next, first)
	t.head[h] = handle
	return handle
}

// Edges returns the interned edge sequence of h as a view into the arena;
// the caller must not modify it.
func (t *PathInterner) Edges(h PathHandle) []EdgeID {
	return t.edges[t.offs[h]:t.offs[h+1]:t.offs[h+1]]
}

// Path returns a freshly-allocated Path copy of h, safe to hand to callers
// that may retain or mutate it.
func (t *PathInterner) Path(h PathHandle) Path {
	src := t.Edges(h)
	out := make([]EdgeID, len(src))
	copy(out, src)
	return Path{Edges: out}
}

// CompareEdges orders two edge sequences lexicographically by numeric edge
// id (shorter prefix first), returning -1, 0 or +1. For tie-breaking that
// must reproduce the historical Path.Key() string order, use
// ComparePathKeys instead — decimal-string order differs from numeric
// order.
func CompareEdges(a, b []EdgeID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// ComparePathKeys orders two edge sequences exactly as the historical
// Path.Key() strings ("e0,e1,...") compare lexicographically, without
// building the strings. This is the drop-in replacement for Key()-based
// tie-breaking: because digits sort above the ',' separator, string order
// differs from the numeric order of CompareEdges (e.g. Key "10,2" sorts
// before "2,10", but also "1,22" before "10,2"), and preserving it keeps
// equal-weight tie-breaks — and therefore sampled schedules — identical to
// the pre-interning implementation.
func ComparePathKeys(a, b []EdgeID) int {
	var abuf, bbuf [24]byte
	ai, bi := 0, 0 // next element index per sequence
	var as, bs []byte
	for {
		if len(as) == 0 {
			if ai >= len(a) {
				if len(bs) == 0 && bi >= len(b) {
					return 0
				}
				return -1 // a exhausted first: shorter prefix sorts first
			}
			as = appendKeyElem(abuf[:0], a, ai)
			ai++
		}
		if len(bs) == 0 {
			if bi >= len(b) {
				return 1
			}
			bs = appendKeyElem(bbuf[:0], b, bi)
			bi++
		}
		n := len(as)
		if len(bs) < n {
			n = len(bs)
		}
		for i := 0; i < n; i++ {
			switch {
			case as[i] < bs[i]:
				return -1
			case as[i] > bs[i]:
				return 1
			}
		}
		as, bs = as[n:], bs[n:]
	}
}

// appendKeyElem renders element idx of edges as it appears in Path.Key():
// its decimal digits, followed by the ',' separator unless it is last.
func appendKeyElem(buf []byte, edges []EdgeID, idx int) []byte {
	v := int64(edges[idx])
	if v == 0 {
		buf = append(buf, '0')
	} else {
		neg := v < 0
		if neg {
			v = -v
		}
		start := len(buf)
		for v > 0 {
			buf = append(buf, byte('0'+v%10))
			v /= 10
		}
		if neg {
			buf = append(buf, '-')
		}
		for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	if idx < len(edges)-1 {
		buf = append(buf, ',')
	}
	return buf
}

// hashEdges mixes the edge ids with a 64-bit avalanche (splitmix64 finaliser
// per element folded FNV-style). The hash only steers bucket placement in
// the intern table; equality is always confirmed by edgesEqual.
func hashEdges(edges []EdgeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, e := range edges {
		x := uint64(e)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		h = (h ^ x) * prime64
	}
	return h
}

func edgesEqual(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
