package main

import (
	"hash/fnv"
	"math/rand"
)

// opKind names one user operation of the benchmark.
type opKind uint8

const (
	opGet opKind = iota
	opQueryEq
	opQueryRange
	opQueryFollow
	opEdit
	opSave
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "query.eq", "query.range", "query.follow", "edit", "save"}

func (k opKind) String() string { return opNames[k] }

// isQuery reports whether the op is one of the three query kinds.
func (k opKind) isQuery() bool { return k == opQueryEq || k == opQueryRange || k == opQueryFollow }

// op is one generated user operation. Obj is a Data index (Get, follow,
// edit target); Tag and Day are the query argument or the edit's new
// values.
type op struct {
	Kind opKind
	Obj  int
	Tag  int
	Day  int
}

// browseDeck is the browse mix, dealt in shuffled blocks of 20 ops: 60%
// Get by name, 15% Description equality, 15% one-day Revised window, 10%
// name → Access follow. Dealing the mix instead of drawing each kind keeps
// the share of the costly window queries the same in every run, so runs on
// different seeds differ in their arguments, not in their mix.
var browseDeck = [...]opKind{
	opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet,
	opQueryEq, opQueryEq, opQueryEq,
	opQueryRange, opQueryRange, opQueryRange,
	opQueryFollow, opQueryFollow,
}

// zipfS is the skew of Get targets over the Data objects.
const zipfS = 1.1

// saveEvery is the number of edits connection 0 makes between SaveVersion
// calls.
const saveEvery = 200

// rangeLimit pages the one-day Revised window.
const rangeLimit = 50

// streamSeed derives one connection's generator seed from the workload
// name, the run seed and the connection number, so the op stream is a pure
// function of (workload, seed).
func streamSeed(workload string, seed int64, conn int) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return int64(h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(conn+1)*0x2545f4914f6cdd1d)
}

// browseStream generates the read mix of one connection.
type browseStream struct {
	ds   *Dataset
	r    *rand.Rand
	zipf *rand.Zipf
	hot  []int    // Zipf rank → Data index, so hot objects are spread out
	deck []opKind // the rest of the current block of the mix
}

func newBrowseStream(ds *Dataset, workload string, seed int64, conn int) *browseStream {
	r := rand.New(rand.NewSource(streamSeed(workload, seed, conn)))
	return &browseStream{
		ds:   ds,
		r:    r,
		zipf: rand.NewZipf(r, zipfS, 1, uint64(ds.Objects-1)),
		hot:  r.Perm(ds.Objects),
	}
}

func (b *browseStream) next() op {
	if len(b.deck) == 0 {
		b.deck = append(b.deck, browseDeck[:]...)
		b.r.Shuffle(len(b.deck), func(i, j int) { b.deck[i], b.deck[j] = b.deck[j], b.deck[i] })
	}
	kind := b.deck[0]
	b.deck = b.deck[1:]
	switch kind {
	case opGet:
		return op{Kind: opGet, Obj: b.hot[b.zipf.Uint64()]}
	case opQueryEq:
		return op{Kind: opQueryEq, Tag: b.r.Intn(b.ds.Tags)}
	case opQueryRange:
		return op{Kind: opQueryRange, Day: b.r.Intn(b.ds.Days)}
	default:
		// Follow from an object that has an Action, so every follow
		// returns one object.
		return op{Kind: opQueryFollow, Obj: b.r.Intn(b.ds.actions) * b.ds.ActionGap}
	}
}

// editStream generates the edits of one connection over the Data index
// range [lo, hi). With saves set it emits a SaveVersion after every
// saveEvery edits.
type editStream struct {
	ds     *Dataset
	r      *rand.Rand
	lo, hi int
	saves  bool
	edits  int
	saved  bool // a save followed the last edit
}

func newEditStream(ds *Dataset, workload string, seed int64, conn, lo, hi int, saves bool) *editStream {
	return &editStream{
		ds: ds, r: rand.New(rand.NewSource(streamSeed(workload, seed, conn))),
		lo: lo, hi: hi, saves: saves,
	}
}

func (e *editStream) next() op {
	if e.saves && e.edits > 0 && e.edits%saveEvery == 0 && !e.saved {
		e.saved = true
		return op{Kind: opSave}
	}
	e.saved = false
	e.edits++
	return op{
		Kind: opEdit,
		Obj:  e.lo + e.r.Intn(e.hi-e.lo),
		Tag:  e.r.Intn(e.ds.Tags),
		Day:  e.r.Intn(e.ds.Days),
	}
}
