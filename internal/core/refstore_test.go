package core

import (
	"sort"
	"testing"

	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// refStore is the reference model the lockstep differential drives next to
// the columnar store: ID-keyed maps of whole rows, and a freeze is a deep
// copy — no delta, no sharing, no chunk versioning. It is deliberately
// naive, so a disagreement points at the columnar store.
//
// Freezing copies the live maps wholesale, so it would capture staged
// transaction state; the differential only freezes between transactions,
// and freezeView refuses otherwise. The reference carries no attribute
// indexes (the planner differential covers those).
type refStore struct {
	objects map[item.ID]item.Object
	rels    map[item.ID]item.Relationship
	byName  map[string]item.ID               // live independent objects
	kids    map[item.ID]map[string][]item.ID // live sub-objects by parent and role, index order
	relsOfM map[item.ID][]item.ID            // live relationships per end object, ID order
}

func newRefStore() *refStore {
	return &refStore{
		objects: make(map[item.ID]item.Object),
		rels:    make(map[item.ID]item.Relationship),
		byName:  make(map[string]item.ID),
		kids:    make(map[item.ID]map[string][]item.ID),
		relsOfM: make(map[item.ID][]item.ID),
	}
}

// newRefEngine returns an empty Figure 3 engine running on the reference
// store. Restore would put it back on the columnar store, so the
// differential workload never restores.
//
// seed:locked-caller — the engine is fresh and not yet shared.
func newRefEngine(t *testing.T) *Engine {
	en := newFig3(t)
	en.st = newRefStore()
	return en
}

// ---- item state ----

func (rs *refStore) object(id item.ID) (item.Object, bool) {
	o, ok := rs.objects[id]
	return o, ok
}

func (rs *refStore) rel(id item.ID) (item.Relationship, bool) {
	r, ok := rs.rels[id]
	return r, ok
}

func (rs *refStore) kindOf(id item.ID) (item.Kind, bool) {
	if _, ok := rs.objects[id]; ok {
		return item.KindObject, true
	}
	if _, ok := rs.rels[id]; ok {
		return item.KindRelationship, true
	}
	return 0, false
}

func (rs *refStore) objectIDs() []item.ID {
	out := make([]item.ID, 0, len(rs.objects))
	for id := range rs.objects {
		out = append(out, id)
	}
	return out
}

func (rs *refStore) relIDs() []item.ID {
	out := make([]item.ID, 0, len(rs.rels))
	for id := range rs.rels {
		out = append(out, id)
	}
	return out
}

func (rs *refStore) visibleObjects() []item.ID {
	var out []item.ID
	for id, o := range rs.objects {
		if !o.Deleted {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

func (rs *refStore) visibleRels() []item.ID {
	var out []item.ID
	for id, r := range rs.rels {
		if !r.Deleted {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// ---- physical row mutation ----

func (rs *refStore) insertObject(o *item.Object) { rs.objects[o.ID] = *o }

func (rs *refStore) removeObject(id item.ID) {
	delete(rs.objects, id)
	delete(rs.kids, id)
	delete(rs.relsOfM, id)
}

func (rs *refStore) insertRel(r *item.Relationship) { rs.rels[r.ID] = *r }

func (rs *refStore) removeRel(id item.ID) {
	delete(rs.rels, id)
	delete(rs.kids, id) // attribute sub-objects hang off relationships
}

// updateObject and updateRel apply f to a known row in place.
func (rs *refStore) updateObject(id item.ID, f func(*item.Object)) {
	if o, ok := rs.objects[id]; ok {
		f(&o)
		rs.objects[id] = o
	}
}

func (rs *refStore) updateRel(id item.ID, f func(*item.Relationship)) {
	if r, ok := rs.rels[id]; ok {
		f(&r)
		rs.rels[id] = r
	}
}

func (rs *refStore) setValue(id item.ID, v value.Value) {
	rs.updateObject(id, func(o *item.Object) { o.Value = v })
}

func (rs *refStore) setClass(id item.ID, c *schema.Class) {
	rs.updateObject(id, func(o *item.Object) { o.Class = c })
}

func (rs *refStore) setAssoc(id item.ID, a *schema.Association) {
	rs.updateRel(id, func(r *item.Relationship) { r.Assoc = a })
}

func (rs *refStore) setPattern(id item.ID, pat bool) {
	rs.updateObject(id, func(o *item.Object) { o.Pattern = pat })
	rs.updateRel(id, func(r *item.Relationship) { r.Pattern = pat })
}

func (rs *refStore) setDeleted(id item.ID, del bool) {
	rs.updateObject(id, func(o *item.Object) { o.Deleted = del })
	rs.updateRel(id, func(r *item.Relationship) { r.Deleted = del })
}

// ---- name index ----

func (rs *refStore) lookupName(name string) (item.ID, bool) {
	id, ok := rs.byName[name]
	return id, ok
}

func (rs *refStore) setName(name string, id item.ID) { rs.byName[name] = id }

func (rs *refStore) delName(name string) { delete(rs.byName, name) }

// ---- containment adjacency ----

func (rs *refStore) children(parent item.ID, role string) []item.ID {
	return copyIDs(rs.kids[parent][role])
}

func (rs *refStore) childrenAll(parent item.ID) []item.ID {
	byRole := rs.kids[parent]
	roles := make([]string, 0, len(byRole))
	for r := range byRole {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	var out []item.ID
	for _, r := range roles {
		out = append(out, byRole[r]...)
	}
	return out
}

func (rs *refStore) linkChild(parent item.ID, role string, child item.ID, index int) {
	byRole := rs.kids[parent]
	if byRole == nil {
		byRole = make(map[string][]item.ID)
		rs.kids[parent] = byRole
	}
	ids := byRole[role]
	pos := sort.Search(len(ids), func(i int) bool { return rs.objects[ids[i]].Index >= index })
	ids = append(ids[:pos:pos], append([]item.ID{child}, ids[pos:]...)...)
	byRole[role] = ids
}

func (rs *refStore) unlinkChild(parent item.ID, role string, child item.ID) {
	byRole := rs.kids[parent]
	byRole[role] = without(byRole[role], child)
	if len(byRole[role]) == 0 {
		delete(byRole, role)
	}
}

// ---- relationship adjacency ----

func (rs *refStore) relsOf(obj item.ID) []item.ID { return copyIDs(rs.relsOfM[obj]) }

func (rs *refStore) linkRel(obj, rel item.ID) {
	ids := rs.relsOfM[obj]
	pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= rel })
	if pos < len(ids) && ids[pos] == rel {
		return // same object in several roles is linked once
	}
	rs.relsOfM[obj] = append(ids[:pos:pos], append([]item.ID{rel}, ids[pos:]...)...)
}

func (rs *refStore) unlinkRel(obj, rel item.ID) { rs.relsOfM[obj] = without(rs.relsOfM[obj], rel) }

// without returns ids minus one occurrence of id, as a fresh slice.
func without(ids []item.ID, id item.ID) []item.ID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i:i], ids[i+1:]...)
		}
	}
	return ids
}

// ---- frozen snapshots ----

func (rs *refStore) freezeView(sch *schema.Schema, _ map[item.ID]bool, staged bool) frozen {
	if staged {
		panic("refStore: freeze while a transaction is staged")
	}
	return rs.rebuildView(sch)
}

// rebuildView deep-copies every row and adjacency list.
func (rs *refStore) rebuildView(sch *schema.Schema) frozen {
	cp := newRefStore()
	for id, o := range rs.objects {
		cp.objects[id] = o
	}
	for id, r := range rs.rels {
		cp.rels[id] = r.Clone()
	}
	for name, id := range rs.byName {
		cp.byName[name] = id
	}
	for parent, byRole := range rs.kids {
		m := make(map[string][]item.ID, len(byRole))
		for role, ids := range byRole {
			m[role] = copyIDs(ids)
		}
		cp.kids[parent] = m
	}
	for obj, ids := range rs.relsOfM {
		cp.relsOfM[obj] = copyIDs(ids)
	}
	return refView{sch: sch, st: cp}
}

func (rs *refStore) invalidate() {}

func (rs *refStore) setAttrSpecs([]item.AttrSpec) {}

// refView is one frozen reference generation: a private deep copy of the
// store, answered through the same accessors rawView uses.
type refView struct {
	sch *schema.Schema
	st  *refStore
}

func (v refView) Schema() *schema.Schema { return v.sch }

func (v refView) Object(id item.ID) (item.Object, bool) {
	o, ok := v.st.objects[id]
	if !ok || o.Deleted {
		return item.Object{}, false
	}
	return o, true
}

func (v refView) Relationship(id item.ID) (item.Relationship, bool) {
	r, ok := v.st.rels[id]
	if !ok || r.Deleted {
		return item.Relationship{}, false
	}
	return r, true
}

func (v refView) ObjectByName(name string) (item.ID, bool) { return v.st.lookupName(name) }

func (v refView) Children(parent item.ID, role string) []item.ID {
	if role != "" {
		return v.st.children(parent, role)
	}
	return v.st.childrenAll(parent)
}

func (v refView) RelationshipsOf(obj item.ID) []item.ID { return v.st.relsOf(obj) }

func (v refView) Objects() []item.ID { return v.st.visibleObjects() }

func (v refView) Relationships() []item.ID { return v.st.visibleRels() }

func (v refView) ObjectsOfClass(qualified string) ([]item.ID, bool) {
	var out []item.ID
	for _, id := range v.st.visibleObjects() {
		if v.st.objects[id].Class.QualifiedName() == qualified {
			out = append(out, id)
		}
	}
	return out, true
}

func (v refView) InheritsRelationships() []item.ID {
	var out []item.ID
	for _, id := range v.st.visibleRels() {
		if v.st.rels[id].Inherits {
			out = append(out, id)
		}
	}
	return out
}

func (v refView) AttrIndex(item.AttrKey) (*item.AttrIdx, bool) { return nil, false }
