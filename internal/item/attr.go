package item

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/value"
)

// Attribute indexes: optional per-class secondary indexes over the values
// reached by a fixed role path below each object of a class. A spec names
// the indexed class, the dotted role path ("Text.Selector"), and the index
// kind — hash for equality lookups, ordered for equality plus ranges. The
// stores build one immutable AttrIdx per registered spec per frozen
// generation (maintained incrementally like the class index); the query
// planner reads them through the AttrIndexedView extension.
//
// An index result is a candidate set, not an answer: it lists, in ascending
// ID order, every root whose some leaf on the path satisfies the lookup.
// The executor re-runs the full predicate set on every candidate, so index
// and scan paths return identical results by construction — the index may
// err on the side of extra candidates (stale pattern roots hidden by a
// spliced view, mixed-kind near-misses) but never misses a true match.

// AttrKind selects the index representation.
type AttrKind uint8

// The attribute index kinds.
const (
	AttrHash    AttrKind = iota + 1 // equality lookups only
	AttrOrdered                     // equality and range lookups
)

// String returns the surface spelling ("hash", "ordered").
func (k AttrKind) String() string {
	switch k {
	case AttrHash:
		return "hash"
	case AttrOrdered:
		return "ordered"
	}
	return "attr-kind?"
}

// Valid reports whether k is a known kind.
func (k AttrKind) Valid() bool { return k == AttrHash || k == AttrOrdered }

// ParseAttrKind parses the surface spelling of an index kind.
func ParseAttrKind(s string) (AttrKind, error) {
	switch s {
	case "hash":
		return AttrHash, nil
	case "ordered":
		return AttrOrdered, nil
	}
	return 0, fmt.Errorf("unknown attribute index kind %q (want hash or ordered)", s)
}

// AttrKey identifies one attribute index: the qualified class name of the
// indexed root objects and the dotted role path to the value sub-objects.
type AttrKey struct {
	Class string
	Path  string
}

// String renders the key as "Class/Role.Path".
func (k AttrKey) String() string { return k.Class + "/" + k.Path }

// AttrSpec is the declaration of one attribute index.
type AttrSpec struct {
	Key  AttrKey
	Kind AttrKind
}

// SplitAttrPath splits a dotted role path, rejecting empty segments.
func SplitAttrPath(path string) ([]string, error) {
	if path == "" {
		return nil, fmt.Errorf("empty attribute path")
	}
	roles := strings.Split(path, ".")
	for _, r := range roles {
		if r == "" {
			return nil, fmt.Errorf("bad attribute path %q", path)
		}
	}
	return roles, nil
}

// AttrPosting is one index entry: a defined leaf value and the root object
// it was reached from. A root contributes one posting per leaf on the path.
type AttrPosting struct {
	Val value.Value
	ID  ID
}

// attrValKey is the canonical comparable form of an indexed value: strings
// compare as themselves, every other kind through a uint64 ordinal whose
// unsigned order matches value.Compare (sign-flipped integers and dates,
// monotone float bits with -0 normalized to +0). Keys order by kind first,
// so one sorted posting array holds mixed-kind values and a range lookup
// confines itself to the bound's kind.
type attrValKey struct {
	kind uint8
	ord  uint64
	str  string
}

func attrOrd(v value.Value) uint64 {
	switch v.Kind() {
	case value.KindInteger:
		return uint64(v.Int()) ^ (1 << 63)
	case value.KindReal:
		f := v.Real()
		if f == 0 {
			f = 0 // -0 and +0 compare equal; give them one ordinal
		}
		b := math.Float64bits(f)
		if b&(1<<63) != 0 {
			return ^b
		}
		return b | 1<<63
	case value.KindBoolean:
		if v.Bool() {
			return 1
		}
		return 0
	case value.KindDate:
		return uint64(v.Date().Unix()) ^ (1 << 63)
	}
	return 0
}

func attrKeyOf(v value.Value) attrValKey {
	k := attrValKey{kind: uint8(v.Kind())}
	if v.Kind() == value.KindString {
		k.str = v.Str()
	} else {
		k.ord = attrOrd(v)
	}
	return k
}

func (k attrValKey) cmp(o attrValKey) int {
	if k.kind != o.kind {
		if k.kind < o.kind {
			return -1
		}
		return 1
	}
	if k.kind == uint8(value.KindString) {
		return strings.Compare(k.str, o.str)
	}
	if k.ord != o.ord {
		if k.ord < o.ord {
			return -1
		}
		return 1
	}
	return 0
}

// attrEntry is one posting with its key precomputed.
type attrEntry struct {
	key attrValKey
	id  ID
}

// AttrIdx is one immutable attribute index generation. A hash index keeps
// per-value buckets; an ordered index keeps one posting array sorted by
// (value, ID). All lookups are safe for concurrent readers; results follow
// the View mutability contract (shared, immutable slices).
type AttrIdx struct {
	kind     AttrKind
	n        int
	postings []attrEntry        // AttrOrdered: sorted by (key, id), deduped
	buckets  map[attrValKey][]ID // AttrHash: ascending deduped IDs per value
}

// NewAttrIdx builds an index from unordered postings (undefined values are
// skipped, exact duplicates collapse).
func NewAttrIdx(kind AttrKind, posts []AttrPosting) *AttrIdx {
	x := &AttrIdx{kind: kind}
	entries := make([]attrEntry, 0, len(posts))
	for _, p := range posts {
		if !p.Val.IsDefined() {
			continue
		}
		entries = append(entries, attrEntry{key: attrKeyOf(p.Val), id: p.ID})
	}
	sortAttrEntries(entries)
	entries = dedupAttrEntries(entries)
	if kind == AttrHash {
		x.buckets = make(map[attrValKey][]ID)
		for _, e := range entries {
			x.buckets[e.key] = append(x.buckets[e.key], e.id)
		}
		x.n = len(entries)
		return x
	}
	x.postings = entries
	x.n = len(entries)
	return x
}

func sortAttrEntries(entries []attrEntry) {
	sort.Slice(entries, func(i, j int) bool {
		c := entries[i].key.cmp(entries[j].key)
		if c != 0 {
			return c < 0
		}
		return entries[i].id < entries[j].id
	})
}

func dedupAttrEntries(entries []attrEntry) []attrEntry {
	out := entries[:0]
	for i, e := range entries {
		if i > 0 && e.key.cmp(entries[i-1].key) == 0 && e.id == entries[i-1].id {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Kind returns the index representation.
func (x *AttrIdx) Kind() AttrKind { return x.kind }

// Len returns the number of postings (one per root-leaf pair).
func (x *AttrIdx) Len() int { return x.n }

// EstEq returns the posting count for an exact value — the planner's
// cardinality estimate, computed without materializing candidates.
func (x *AttrIdx) EstEq(v value.Value) int {
	if !v.IsDefined() {
		return 0
	}
	key := attrKeyOf(v)
	if x.kind == AttrHash {
		return len(x.buckets[key])
	}
	lo, hi := x.eqBounds(key)
	return hi - lo
}

// Eq returns the roots holding exactly v on the indexed path, ascending, as
// a shared immutable slice.
//
//seedlint:frozen
func (x *AttrIdx) Eq(v value.Value) []ID {
	if !v.IsDefined() {
		return nil
	}
	key := attrKeyOf(v)
	if x.kind == AttrHash {
		return x.buckets[key]
	}
	lo, hi := x.eqBounds(key)
	if lo == hi {
		return nil
	}
	out := make([]ID, 0, hi-lo)
	for _, e := range x.postings[lo:hi] {
		out = append(out, e.id) // ascending and unique within one key
	}
	return out
}

// eqBounds returns the half-open posting range holding exactly key.
func (x *AttrIdx) eqBounds(key attrValKey) (int, int) {
	lo := sort.Search(len(x.postings), func(i int) bool { return x.postings[i].key.cmp(key) >= 0 })
	hi := sort.Search(len(x.postings), func(i int) bool { return x.postings[i].key.cmp(key) > 0 })
	return lo, hi
}

// rangeBounds returns the half-open posting range for values of the bounds'
// kind between lo and hi (either may be Undefined for an open end). ok is
// false when the index is not ordered; mismatched or unordered bounds
// produce an empty range, matching the scan path where value.Compare
// refuses them and the predicate matches nothing.
func (x *AttrIdx) rangeBounds(lo, hi value.Value, loIncl, hiIncl bool) (int, int, bool) {
	if x.kind != AttrOrdered {
		return 0, 0, false
	}
	var kind uint8
	switch {
	case lo.IsDefined():
		kind = uint8(lo.Kind())
	case hi.IsDefined():
		kind = uint8(hi.Kind())
	default:
		return 0, 0, false
	}
	if kind == uint8(value.KindBoolean) || kind == uint8(value.KindNone) ||
		(lo.IsDefined() && hi.IsDefined() && lo.Kind() != hi.Kind()) {
		return 0, 0, true // unordered or mismatched bounds: matches nothing
	}
	start := sort.Search(len(x.postings), func(i int) bool { return x.postings[i].key.kind >= kind })
	if lo.IsDefined() {
		key := attrKeyOf(lo)
		want := 0
		if !loIncl {
			want = 1
		}
		start = sort.Search(len(x.postings), func(i int) bool { return x.postings[i].key.cmp(key) >= want })
	}
	end := sort.Search(len(x.postings), func(i int) bool { return x.postings[i].key.kind > kind })
	if hi.IsDefined() {
		key := attrKeyOf(hi)
		want := 1
		if !hiIncl {
			want = 0
		}
		end = sort.Search(len(x.postings), func(i int) bool { return x.postings[i].key.cmp(key) >= want })
	}
	if end < start {
		end = start
	}
	return start, end, true
}

// EstRange estimates the candidate count of a range lookup without
// materializing it. ok is false when the index cannot answer ranges.
func (x *AttrIdx) EstRange(lo, hi value.Value, loIncl, hiIncl bool) (int, bool) {
	start, end, ok := x.rangeBounds(lo, hi, loIncl, hiIncl)
	return end - start, ok
}

// Range returns the roots with some leaf value between lo and hi (either
// bound may be Undefined for an open end), ascending and deduplicated, as a
// fresh slice. ok is false when the index cannot answer ranges.
func (x *AttrIdx) Range(lo, hi value.Value, loIncl, hiIncl bool) ([]ID, bool) {
	start, end, ok := x.rangeBounds(lo, hi, loIncl, hiIncl)
	if !ok {
		return nil, false
	}
	if start == end {
		return nil, true
	}
	out := make([]ID, 0, end-start)
	for _, e := range x.postings[start:end] {
		out = append(out, e.id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	uniq := out[:0]
	for i, id := range out {
		if i > 0 && id == out[i-1] {
			continue
		}
		uniq = append(uniq, id)
	}
	return uniq, true
}

// Patch derives the next generation: remove holds the previous postings of
// every affected root (all of them — removal filters by root ID), add holds
// those roots' fresh postings. Untouched state is shared: the ordered array
// is merged in one pass, a hash patch clones the bucket map header and
// rebuilds only the touched buckets.
func (x *AttrIdx) Patch(remove, add []AttrPosting) *AttrIdx {
	if len(remove) == 0 && len(add) == 0 {
		return x
	}
	rm := make(map[ID]bool, len(remove))
	for _, p := range remove {
		rm[p.ID] = true
	}
	addEntries := make([]attrEntry, 0, len(add))
	for _, p := range add {
		if !p.Val.IsDefined() {
			continue
		}
		addEntries = append(addEntries, attrEntry{key: attrKeyOf(p.Val), id: p.ID})
	}
	sortAttrEntries(addEntries)
	addEntries = dedupAttrEntries(addEntries)

	if x.kind == AttrHash {
		return x.patchHash(remove, rm, addEntries)
	}

	out := make([]attrEntry, 0, len(x.postings)+len(addEntries))
	ai := 0
	for _, e := range x.postings {
		if rm[e.id] {
			continue
		}
		for ai < len(addEntries) {
			c := addEntries[ai].key.cmp(e.key)
			if c > 0 || (c == 0 && addEntries[ai].id >= e.id) {
				break
			}
			out = append(out, addEntries[ai])
			ai++
		}
		if ai < len(addEntries) && addEntries[ai].key.cmp(e.key) == 0 && addEntries[ai].id == e.id {
			ai++ // identical entry re-added; keep one copy
		}
		out = append(out, e)
	}
	out = append(out, addEntries[ai:]...)
	return &AttrIdx{kind: AttrOrdered, n: len(out), postings: out}
}

func (x *AttrIdx) patchHash(remove []AttrPosting, rm map[ID]bool, addEntries []attrEntry) *AttrIdx {
	touched := make(map[attrValKey][]ID)
	for _, p := range remove {
		key := attrKeyOf(p.Val)
		if _, ok := touched[key]; !ok {
			touched[key] = nil
		}
	}
	for _, e := range addEntries {
		touched[e.key] = append(touched[e.key], e.id) // ascending, deduped
	}
	buckets := make(map[attrValKey][]ID, len(x.buckets))
	n := x.n
	for key, ids := range x.buckets {
		buckets[key] = ids
	}
	for key, addIDs := range touched {
		old := buckets[key]
		ids := make([]ID, 0, len(old)+len(addIDs))
		ai := 0
		for _, id := range old {
			if rm[id] {
				n--
				continue
			}
			for ai < len(addIDs) && addIDs[ai] < id {
				ids = append(ids, addIDs[ai])
				ai++
				n++
			}
			if ai < len(addIDs) && addIDs[ai] == id {
				ai++
			}
			ids = append(ids, id)
		}
		for ; ai < len(addIDs); ai++ {
			ids = append(ids, addIDs[ai])
			n++
		}
		if len(ids) == 0 {
			delete(buckets, key)
		} else {
			buckets[key] = ids
		}
	}
	return &AttrIdx{kind: AttrHash, n: n, buckets: buckets}
}

// AttrIndexedView is an optional View extension implemented by views that
// maintain attribute indexes. ok=false means the view has no index for the
// key (or cannot answer for it — a spliced view with virtual items), and
// the caller must fall back to another access path.
type AttrIndexedView interface {
	View

	// AttrIndex returns the index generation for a key, if maintained.
	AttrIndex(key AttrKey) (*AttrIdx, bool)
}
