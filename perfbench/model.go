package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/value"
	"repro/seed"
)

// version is one value pair an object held. Seq orders edits: it is taken
// when the edit is sent, so a read that overlaps the edit may see it.
type version struct {
	seq      int64
	tag, day int
}

// model is the generator's record of what the database must hold: every
// edit is entered before its check-in is sent, and a read is checked
// against the versions that were current at some point while it ran.
type model struct {
	ds *Dataset

	mu        sync.RWMutex
	hist      [][]version // per Data index; hist[i][0] is the built value
	uncertain []bool      // a check-in failed: the object's value is unknown

	sent  atomic.Int64 // seq of the last edit entered
	acked atomic.Int64 // seq of the last edit acknowledged (single editor)
}

func newModel(ds *Dataset) *model {
	m := &model{ds: ds, hist: make([][]version, ds.Objects), uncertain: make([]bool, ds.Objects)}
	for i := range m.hist {
		m.hist[i] = []version{{tag: ds.Tag[i], day: ds.Day[i]}}
	}
	return m
}

// enter records the value an edit is about to write and returns its seq.
func (m *model) enter(i, tag, day int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq := m.sent.Add(1)
	m.hist[i] = append(m.hist[i], version{seq: seq, tag: tag, day: day})
	return seq
}

// ack marks an edit acknowledged.
func (m *model) ack(seq int64) {
	for {
		cur := m.acked.Load()
		if seq <= cur || m.acked.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// fail marks object i's value unknown after a failed check-in.
func (m *model) fail(i int) {
	m.mu.Lock()
	m.uncertain[i] = true
	m.mu.Unlock()
}

// window is the range of edits a read may observe: everything acked before
// it was sent, and anything entered before its reply arrived.
type window struct{ lo, hi int64 }

// readStart is called before a read is sent, readWindow after its reply
// arrived.
func (m *model) readStart() int64           { return m.acked.Load() }
func (m *model) readWindow(lo int64) window { return window{lo: lo, hi: m.sent.Load()} }

// visible calls fn for every version of object i a read in w may observe,
// and reports whether any of them satisfied fn.
func (m *model) visible(i int, w window, fn func(v version) bool) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.uncertain[i] {
		return true
	}
	h := m.hist[i]
	base := 0
	for k, v := range h {
		if v.seq <= w.lo {
			base = k
		}
	}
	for _, v := range h[base:] {
		if v.seq > w.hi {
			break
		}
		if fn(v) {
			return true
		}
	}
	return false
}

// last returns object i's final value and whether it is known.
func (m *model) last(i int) (version, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h := m.hist[i]
	return h[len(h)-1], !m.uncertain[i]
}

// firstByID returns up to limit of the given Data indexes in item ID
// order, the order the query engine returns them in.
func (m *model) firstByID(idx []int, limit int) []string {
	s := append([]int(nil), idx...)
	sort.Slice(s, func(a, b int) bool { return m.ds.ID[s[a]] < m.ds.ID[s[b]] })
	if len(s) > limit {
		s = s[:limit]
	}
	names := make([]string, len(s))
	for k, i := range s {
		names[k] = dataName(i)
	}
	return names
}

// readBack reads object i's Description tag and Revised day from a view.
func readBack(v seed.View, i int) (tag, day int, err error) {
	name := dataName(i)
	id, ok := v.ObjectByName(name)
	if !ok {
		return 0, 0, fmt.Errorf("%s missing", name)
	}
	desc, ok := childValue(v, id, "Description")
	if !ok {
		return 0, 0, fmt.Errorf("%s has no Description", name)
	}
	rev, ok := childValue(v, id, "Revised")
	if !ok {
		return 0, 0, fmt.Errorf("%s has no Revised", name)
	}
	if tag, err = parseTag(desc.String()); err != nil {
		return 0, 0, err
	}
	return tag, int(rev.Date().Sub(dayZero) / (24 * time.Hour)), nil
}

func childValue(v seed.View, id seed.ID, role string) (seed.Value, bool) {
	kids := v.Children(id, role)
	if len(kids) != 1 {
		return seed.Value{}, false
	}
	o, ok := v.Object(kids[0])
	return o.Value, ok
}

func parseTag(s string) (int, error) {
	var k int
	if _, err := fmt.Sscanf(s, "tag-%d", &k); err != nil {
		return 0, fmt.Errorf("bad Description %q", s)
	}
	return k, nil
}

func parseDay(s string) (int, error) {
	t, err := time.Parse(value.DateLayout, s)
	if err != nil {
		return 0, err
	}
	return int(t.Sub(dayZero) / (24 * time.Hour)), nil
}

// checkState compares every object in v with the model's final value and
// returns the first few mismatches.
func (m *model) checkState(v seed.View) []string {
	var bad []string
	for i := 0; i < m.ds.Objects && len(bad) < 5; i++ {
		want, known := m.last(i)
		if !known {
			continue
		}
		tag, day, err := readBack(v, i)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		if tag != want.tag || day != want.day {
			bad = append(bad, fmt.Sprintf("%s holds (%s, %s), model says (%s, %s)",
				dataName(i), tagName(tag), dayText(day), tagName(want.tag), dayText(want.day)))
		}
	}
	return bad
}
